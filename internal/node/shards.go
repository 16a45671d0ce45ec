package node

// Real-process shard management: spawn, signal and relaunch adplatform
// children by shard index. The shard INDEX is the stable identity — a
// resurrected shard reuses its index, address and WAL directory, because the
// shard count and order are part of the delivery day's determinism contract
// (position mod N over the sorted user list). We resurrect, never renumber.

import (
	"fmt"
	"os"
	"os/exec"
	"sync"
	"time"
)

// ShardProcs owns one child process per shard. It is the coordinator's
// Relauncher for adrouter and adchaos, and adchaos's process-level chaos
// target: Signal delivers SIGKILL/SIGSTOP/SIGCONT to a shard's current child.
type ShardProcs struct {
	mu    sync.Mutex
	argv  [][]string // per-shard command line
	logs  []string   // per-shard log path (appended across relaunches)
	procs []*exec.Cmd
	waits []chan struct{} // closed when the current child is reaped
}

// StartShards spawns one child per shard, or none: if a child cannot start,
// the ones already started are killed and reaped before the error returns.
// argv[i] is shard i's full command line; logs[i] (logs may be nil, an entry
// empty) receives its combined output, appended across relaunches.
func StartShards(argv [][]string, logs []string) (*ShardProcs, error) {
	if len(argv) == 0 {
		return nil, fmt.Errorf("node: no shard command lines")
	}
	for i, a := range argv {
		if len(a) == 0 {
			return nil, fmt.Errorf("node: empty command line for shard %d", i)
		}
	}
	if logs == nil {
		logs = make([]string, len(argv))
	}
	if len(logs) != len(argv) {
		return nil, fmt.Errorf("node: %d log paths for %d shards", len(logs), len(argv))
	}
	p := &ShardProcs{
		argv:  argv,
		logs:  logs,
		procs: make([]*exec.Cmd, len(argv)),
		waits: make([]chan struct{}, len(argv)),
	}
	for i := range argv {
		// p is not shared yet: nothing else can hold its lock.
		if err := p.startLocked(i); err != nil {
			p.StopAll()
			return nil, err
		}
	}
	return p, nil
}

func (p *ShardProcs) startLocked(shard int) error {
	argv := p.argv[shard]
	cmd := exec.Command(argv[0], argv[1:]...)
	if path := p.logs[shard]; path != "" {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("node: shard %d log: %w", shard, err)
		}
		cmd.Stdout, cmd.Stderr = f, f
		defer f.Close() //adlint:allow walerr (log handle is duplicated into the child by Start; this close only drops the parent's fd)
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("node: starting shard %d: %w", shard, err)
	}
	done := make(chan struct{})
	// Reap the child whenever it exits — killed by chaos, by Relaunch, or on
	// its own — so no zombie holds the pid table (the exit status itself is
	// uninteresting: the health model judges the shard by its socket).
	go func() { _ = cmd.Wait(); close(done) }()
	p.procs[shard], p.waits[shard] = cmd, done
	return nil
}

// Relaunch hard-kills shard i's current child (if any) and starts a fresh
// one with the identical command line: same index, same address, same WAL
// directory, so the new process recovers the durable state and rejoins as
// the same shard.
func (p *ShardProcs) Relaunch(shard int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.killLocked(shard); err != nil {
		return err
	}
	return p.startLocked(shard)
}

// killLocked SIGKILLs the current child and waits for the reaper, freeing
// the shard's listen address before a relaunch. SIGKILL also fells a
// SIGSTOPped child, which is exactly the supervision pass's case: a paused
// shard that never resumed is indistinguishable from a dead one and gets
// replaced.
func (p *ShardProcs) killLocked(shard int) error {
	cmd := p.procs[shard]
	if cmd == nil {
		return nil
	}
	// Deliberate real-process kill of a child this process owns, not chaos:
	// the WAL holds every acked mutation, so the kill can cost wall time but
	// never state.
	_ = cmd.Process.Kill()
	select {
	case <-p.waits[shard]:
	case <-time.After(10 * time.Second):
		return fmt.Errorf("node: shard %d child (pid %d) did not exit after SIGKILL", shard, cmd.Process.Pid)
	}
	p.procs[shard], p.waits[shard] = nil, nil
	return nil
}

// Signal delivers sig to shard i's current child (the chaos orchestrator's
// kill/pause/resume lever). Signaling a shard with no child is an error.
func (p *ShardProcs) Signal(shard int, sig os.Signal) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	cmd := p.procs[shard]
	if cmd == nil {
		return fmt.Errorf("node: shard %d has no child to signal", shard)
	}
	if err := cmd.Process.Signal(sig); err != nil {
		return fmt.Errorf("node: signaling shard %d: %w", shard, err)
	}
	return nil
}

// Pid reports shard i's current child pid (0 if none) — for logs and tests.
func (p *ShardProcs) Pid(shard int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.procs[shard] == nil {
		return 0
	}
	return p.procs[shard].Process.Pid
}

// StopAll SIGKILLs every child and reaps them — the shutdown path.
func (p *ShardProcs) StopAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.procs {
		_ = p.killLocked(i)
	}
}
