package main

import (
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/adaudit/impliedidentity/internal/chaos"
	"github.com/adaudit/impliedidentity/internal/faults"
	"github.com/adaudit/impliedidentity/internal/node"
)

// Every bad command line is refused before a child is spawned or a world
// generated: run returns at once with an error naming the flag.
func TestFlagValidation(t *testing.T) {
	for name, c := range map[string]struct {
		args []string
		want string
	}{
		"no shard binary":     {nil, "-shard-bin is required"},
		"unknown action":      {[]string{"-shard-bin", "x", "-actions", "kill,explode"}, "unknown action"},
		"no shards":           {[]string{"-shard-bin", "x", "-shards", "0"}, "must all be positive"},
		"no ticks":            {[]string{"-shard-bin", "x", "-ticks", "0"}, "must all be positive"},
		"no cadence":          {[]string{"-shard-bin", "x", "-tick", "0s"}, "must all be positive"},
		"rate above one":      {[]string{"-shard-bin", "x", "-rate", "1.5"}, "outside [0,1]"},
		"no log rows":         {[]string{"-shard-bin", "x", "-logrows", "0"}, "-logrows must be positive, got 0"},
		"negative voters":     {[]string{"-shard-bin", "x", "-voters", "-1"}, "-voters must be positive, got -1"},
		"a flag that is gone": {[]string{"-shard-bin", "x", "-out", "BENCH_chaos_v1.json"}, "flag provided but not defined"},
	} {
		start := time.Now()
		err := run(c.args)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: run%v = %v, want an error containing %q", name, c.args, err, c.want)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("%s: refused after %s; validation must come before any work", name, d)
		}
	}
	o, err := parseFlags([]string{"-shard-bin", "bin/adplatform", "-shards", "3", "-chaos-seed", "9", "-actions", "kill,pause"})
	if err != nil {
		t.Fatal(err)
	}
	if o.schedule.Shards != 3 || o.schedule.Seed != 9 || len(o.schedule.Actions) != 2 || o.world.Voters != 4000 {
		t.Errorf("parsed %+v", o)
	}
}

// The schedule is blind to the supervisor's relaunch timing, so it will
// signal a shard whose child is already dead: that is a no-op, not an error,
// for every signal the target sends.
func TestProcTargetSignalsToADeadChildAreNoOps(t *testing.T) {
	sleep, err := exec.LookPath("sleep")
	if err != nil {
		t.Skip("no sleep binary to stand in for a shard child")
	}
	rel, err := node.StartShards([][]string{{sleep, "60"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rel.StopAll()
	target := &procTarget{chaos.Links{Gate: faults.NewGate(), Hosts: []string{"127.0.0.1:1"}}, rel}

	// A live child takes the signals.
	if err := target.Pause(0); err != nil {
		t.Fatalf("pause of a live child: %v", err)
	}
	if err := target.Resume(0); err != nil {
		t.Fatalf("resume of a live child: %v", err)
	}
	pid := rel.Pid(0)
	if err := target.Kill(0); err != nil {
		t.Fatalf("kill of a live child: %v", err)
	}
	// Wait for the corpse: Signal starts failing once the child is reaped.
	deadline := time.Now().Add(10 * time.Second)
	for rel.Signal(0, syscall.SIGCONT) == nil {
		if time.Now().After(deadline) {
			t.Fatalf("child %d survived SIGKILL", pid)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for name, signal := range map[string]func(int) error{"kill": target.Kill, "pause": target.Pause, "resume": target.Resume} {
		if err := signal(0); err != nil {
			t.Errorf("%s of a dead child: %v, want a no-op", name, err)
		}
	}
	// The link levers need no process at all.
	target.SetSlow(0, true)
	target.SetPartition(0, true)
	target.SetSlow(0, false)
	target.SetPartition(0, false)
}
