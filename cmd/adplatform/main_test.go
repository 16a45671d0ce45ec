package main

import (
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/node"
	"github.com/adaudit/impliedidentity/internal/voter"
)

func TestWriteExtractsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	wc := node.WorldConfig{Seed: 1, Voters: 200}
	if err := writeExtracts(dir, wc); err != nil {
		t.Fatal(err)
	}
	// The written files parse back to the world's registries, record for
	// record.
	for _, ex := range []struct {
		state demo.State
		name  string
		parse func(io.Reader) ([]voter.Record, error)
	}{
		{demo.StateFL, "fl_voter_extract.txt", voter.ParseFL},
		{demo.StateNC, "ncvoter.txt", voter.ParseNC},
	} {
		reg, err := wc.Registry(ex.state)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(filepath.Join(dir, ex.name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := ex.parse(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, reg.Records) {
			t.Errorf("%s round trip: %d records parsed, not the registry's %d", ex.state, len(got), len(reg.Records))
		}
	}
}

func TestRunFlagValidation(t *testing.T) {
	// The rows without -voters would cost a full-size world (about a minute)
	// if the check ran after the build.
	for _, tc := range []struct {
		args []string
		want string // substring of the error; empty accepts any error
	}{
		{[]string{"-voters", "nope"}, ""},
		{[]string{"-fsync", "interval"}, "-fsync applies to the durable store and cannot be combined with an empty -store-dir"},
		{[]string{"-snapshot-every", "10"}, "-snapshot-every applies to the durable store and cannot be combined with an empty -store-dir"},
		{[]string{"-review-reject", "2"}, "-review-reject 2 out of range"},
		{[]string{"-review-reject", "NaN"}, "-review-reject NaN out of range"},
		{[]string{"-logrows", "0"}, "-logrows must be positive, got 0"},
		{[]string{"-voters", "-1"}, "-voters must be positive, got -1"},
		{[]string{"-store-dir", t.TempDir(), "-snapshot-every", "-1"}, "-snapshot-every must not be negative"},
		{[]string{"-fault-rate", "0.1"}, "flag provided but not defined: -fault-rate"},
		{[]string{"-privacy-k", "-1"}, "privacy"},
		// An unusable address fails once the (small) world is built.
		{[]string{"-voters", "2000", "-logrows", "1500", "-addr", "256.0.0.1:99999"}, ""},
	} {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("args %v: want error containing %q, got %v", tc.args, tc.want, err)
		}
	}
}
