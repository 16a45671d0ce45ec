package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/voter"
)

func TestWriteExtractsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	flCfg := voter.DefaultGeneratorConfig(demo.StateFL, 1)
	flCfg.NumVoters = 200
	fl, err := voter.Generate(flCfg)
	if err != nil {
		t.Fatal(err)
	}
	ncCfg := voter.DefaultGeneratorConfig(demo.StateNC, 2)
	ncCfg.NumVoters = 200
	nc, err := voter.Generate(ncCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeExtracts(dir, fl, nc); err != nil {
		t.Fatal(err)
	}
	// The written files parse back to identical records.
	ff, err := os.Open(filepath.Join(dir, "fl_voter_extract.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer ff.Close()
	got, err := voter.ParseFL(ff)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(fl.Records) {
		t.Errorf("FL round trip: %d records, want %d", len(got), len(fl.Records))
	}
	nf, err := os.Open(filepath.Join(dir, "ncvoter.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer nf.Close()
	gotNC, err := voter.ParseNC(nf)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotNC) != len(nc.Records) {
		t.Errorf("NC round trip: %d records, want %d", len(gotNC), len(nc.Records))
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
		{[]string{"-fault-kinds", "gremlins"}, "gremlins"},
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
