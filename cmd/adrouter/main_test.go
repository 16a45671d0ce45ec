package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestShardCommandLines(t *testing.T) {
	backends := []string{"http://127.0.0.1:8401", "http://127.0.0.1:8402"}
	logDir := filepath.Join(t.TempDir(), "logs")
	for _, tc := range []struct {
		name     string
		tmpl     string
		logDir   string
		backends []string
		argv     [][]string
		logs     []string
		err      string // substring of the error; empty wants success
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
		{name: "backend without host", tmpl: "adplatform -addr {addr}", backends: []string{"/shard0"}, err: `backend "/shard0": cannot derive {addr}`},
		{name: "unparsable backend", tmpl: "adplatform -addr {addr}", backends: []string{"127.0.0.1:8401"}, err: `backend "127.0.0.1:8401": cannot derive {addr}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			argv, logs, err := shardCommandLines(tc.tmpl, tc.logDir, tc.backends)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("want error containing %q, got %v", tc.err, err)
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
	}{
		{"", nil},
		{" , ,", nil},
		{"http://127.0.0.1:8401", []string{"http://127.0.0.1:8401"}},
		{" http://a:1/ , ,http://b:2// ", []string{"http://a:1", "http://b:2"}},
	} {
		if got := splitBackends(tc.raw); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("splitBackends(%q) = %q, want %q", tc.raw, got, tc.want)
		}
	}
}
