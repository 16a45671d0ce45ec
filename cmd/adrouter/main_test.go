package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestShardCommandLines renders the template over a -shards list as run
// does: the list is checked by splitBackends before any line is rendered.
func TestShardCommandLines(t *testing.T) {
	backends := "http://127.0.0.1:8401,http://127.0.0.1:8402"
	logDir := filepath.Join(t.TempDir(), "logs")
	for _, tc := range []struct {
		name     string
		tmpl     string
		logDir   string
		backends string
		argv     [][]string
		logs     []string
		err      string // the whole error; empty wants success
	}{
		{
			name:     "expands shard and addr",
			tmpl:     "./bin/adplatform -addr {addr}  -store-dir wal/shard{shard}",
			backends: backends,
			argv: [][]string{
				{"./bin/adplatform", "-addr", "127.0.0.1:8401", "-store-dir", "wal/shard0"},
				{"./bin/adplatform", "-addr", "127.0.0.1:8402", "-store-dir", "wal/shard1"},
			},
			logs: []string{"", ""},
		},
		{
			name:     "log dir",
			tmpl:     "adplatform -addr {addr}",
			logDir:   logDir,
			backends: backends,
			argv: [][]string{
				{"adplatform", "-addr", "127.0.0.1:8401"},
				{"adplatform", "-addr", "127.0.0.1:8402"},
			},
			logs: []string{filepath.Join(logDir, "shard0.log"), filepath.Join(logDir, "shard1.log")},
		},
		{name: "renders empty", tmpl: " \t ", backends: backends, err: "-shard-cmd rendered empty for shard 0"},
		{name: "backend without host", tmpl: "adplatform -addr {addr}", backends: "/shard0", err: `-shards entry "/shard0" is not an http:// or https:// URL with a host`},
		{name: "unparsable backend", tmpl: "adplatform -addr {addr}", backends: "127.0.0.1:8401", err: `-shards entry "127.0.0.1:8401" is not an http:// or https:// URL with a host`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var argv [][]string
			var logs []string
			backends, err := splitBackends(tc.backends)
			if err == nil {
				argv, logs, err = shardCommandLines(tc.tmpl, tc.logDir, backends)
			}
			if tc.err != "" {
				if err == nil || err.Error() != tc.err {
					t.Fatalf("want error %q, got %v", tc.err, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(argv, tc.argv) {
				t.Errorf("argv = %q, want %q", argv, tc.argv)
			}
			if !reflect.DeepEqual(logs, tc.logs) {
				t.Errorf("logs = %q, want %q", logs, tc.logs)
			}
			if tc.logDir != "" {
				if fi, err := os.Stat(tc.logDir); err != nil || !fi.IsDir() {
					t.Errorf("log dir not created: %v", err)
				}
			}
		})
	}
}

func TestSplitBackends(t *testing.T) {
	for _, tc := range []struct {
		raw  string
		want []string
		err  string // the whole error; empty wants success
	}{
		{raw: "", want: nil},
		{raw: " , ,", want: nil},
		{raw: "http://127.0.0.1:8401", want: []string{"http://127.0.0.1:8401"}},
		{raw: " http://a:1/ , ,https://b:2// ", want: []string{"http://a:1", "https://b:2"}},
		{raw: "http://a:1,/shard0", err: `-shards entry "/shard0" is not an http:// or https:// URL with a host`},
		{raw: "localhost:8401", err: `-shards entry "localhost:8401" is not an http:// or https:// URL with a host`},
		{raw: " ftp://h ", err: `-shards entry "ftp://h" is not an http:// or https:// URL with a host`},
	} {
		got, err := splitBackends(tc.raw)
		if tc.err != "" {
			if err == nil || err.Error() != tc.err {
				t.Errorf("splitBackends(%q): error %v, want %q", tc.raw, err, tc.err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("splitBackends(%q) = %q, %v; want %q", tc.raw, got, err, tc.want)
		}
	}
}
