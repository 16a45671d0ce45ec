package node

import (
	"errors"
	"os/exec"
	"strings"
	"syscall"
	"testing"
)

// Bad command lines are refused before any child is spawned.
func TestStartShardsRefusesBadCommandLines(t *testing.T) {
	for name, c := range map[string]struct {
		argv [][]string
		logs []string
		want string
	}{
		"no argv":            {nil, nil, "no shard command lines"},
		"empty command line": {[][]string{{"/bin/true"}, {}}, nil, "empty command line for shard 1"},
		"log count":          {[][]string{{"/bin/true"}}, []string{"a.log", "b.log"}, "2 log paths for 1 shards"},
	} {
		p, err := StartShards(c.argv, c.logs)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: StartShards = %v, want an error containing %q", name, err, c.want)
		}
		if p != nil {
			p.StopAll()
			t.Errorf("%s: refused launch returned children", name)
		}
	}
}

// A shard killed with SIGKILL comes back under a new pid on Relaunch while
// its peer keeps its child, and StopAll reaps every child.
func TestStartShardsRelaunchesAndStops(t *testing.T) {
	sleep, err := exec.LookPath("sleep")
	if err != nil {
		t.Skip("no sleep binary to stand in for a shard child")
	}
	p, err := StartShards([][]string{{sleep, "60"}, {sleep, "60"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.StopAll()
	killed, peer := p.Pid(0), p.Pid(1)
	if killed == 0 || peer == 0 || killed == peer {
		t.Fatalf("pids %d and %d, want two distinct children", killed, peer)
	}

	if err := p.Signal(0, syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	if err := p.Relaunch(0); err != nil {
		t.Fatal(err)
	}
	if got := p.Pid(0); got == 0 || got == killed {
		t.Fatalf("relaunched shard 0 has pid %d, want a new child (was %d)", got, killed)
	}
	if got := p.Pid(1); got != peer {
		t.Fatalf("shard 1's child moved from pid %d to %d on shard 0's relaunch", peer, got)
	}

	pids := []int{p.Pid(0), p.Pid(1)}
	p.StopAll()
	for i, pid := range pids {
		if got := p.Pid(i); got != 0 {
			t.Errorf("shard %d still has child %d after StopAll", i, got)
		}
		if err := p.Signal(i, syscall.SIGCONT); err == nil {
			t.Errorf("shard %d took a signal after StopAll", i)
		}
		// Reaped, not a zombie: the pid is gone from the process table.
		if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
			t.Errorf("shard %d's child %d after StopAll: kill(0) = %v, want ESRCH", i, pid, err)
		}
	}
}

// A child that cannot start takes the ones already started down with it.
func TestStartShardsStartsAllOrNone(t *testing.T) {
	sleep, err := exec.LookPath("sleep")
	if err != nil {
		t.Skip("no sleep binary to stand in for a shard child")
	}
	p, err := StartShards([][]string{{sleep, "60"}, {"/nonexistent/adplatform"}}, nil)
	if err == nil || !strings.Contains(err.Error(), "starting shard 1") {
		t.Fatalf("StartShards = %v, want shard 1's start error", err)
	}
	if p != nil {
		p.StopAll()
		t.Fatal("a failed launch returned its children")
	}
}
