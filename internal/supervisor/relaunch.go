package supervisor

// Real-process shard management: spawn, signal, and relaunch adplatform
// children by shard index. The shard INDEX is the stable identity — a
// resurrected shard reuses its index, address, and WAL directory, because
// the shard count and order are part of the delivery day's determinism
// contract (position mod N over the sorted user list). We resurrect, never
// renumber.

import (
	"fmt"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"
)

// Relauncher restarts a shard's process. Implementations are process-level
// (exec) or a simulated fleet; the coordinator's supervision pass calls it
// for a shard that has stayed down past its grace period.
type Relauncher interface {
	Relaunch(shard int) error
}

// ProcessRelauncher launches and relaunches real shard child processes. It
// doubles as the chaos orchestrator's process-level target: Signal exposes
// SIGKILL/SIGSTOP/SIGCONT on the current child of a shard.
type ProcessRelauncher struct {
	mu    sync.Mutex
	argv  [][]string // per-shard command line
	logs  []string   // per-shard log path (appended across relaunches)
	procs []*exec.Cmd
	waits []chan struct{} // closed when the current child is reaped
}

// NewProcessRelauncher prepares a relauncher for len(argv) shards. argv[i]
// is shard i's full command line; logs[i] (optional, may be nil or empty)
// receives its combined output, appended across restarts.
func NewProcessRelauncher(argv [][]string, logs []string) (*ProcessRelauncher, error) {
	if len(argv) == 0 {
		return nil, fmt.Errorf("supervisor: no shard command lines")
	}
	for i, a := range argv {
		if len(a) == 0 {
			return nil, fmt.Errorf("supervisor: empty command line for shard %d", i)
		}
	}
	if logs == nil {
		logs = make([]string, len(argv))
	}
	if len(logs) != len(argv) {
		return nil, fmt.Errorf("supervisor: %d log paths for %d shards", len(logs), len(argv))
	}
	return &ProcessRelauncher{
		argv:  argv,
		logs:  logs,
		procs: make([]*exec.Cmd, len(argv)),
		waits: make([]chan struct{}, len(argv)),
	}, nil
}

// Start spawns shard i's child (initial launch).
func (r *ProcessRelauncher) Start(shard int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.startLocked(shard)
}

func (r *ProcessRelauncher) startLocked(shard int) error {
	if r.procs[shard] != nil {
		return fmt.Errorf("supervisor: shard %d already has a child", shard)
	}
	argv := r.argv[shard]
	cmd := exec.Command(argv[0], argv[1:]...)
	if path := r.logs[shard]; path != "" {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("supervisor: shard %d log: %w", shard, err)
		}
		cmd.Stdout, cmd.Stderr = f, f
		defer f.Close() //adlint:allow walerr (log handle is duplicated into the child by Start; this close only drops the parent's fd)
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("supervisor: starting shard %d: %w", shard, err)
	}
	done := make(chan struct{})
	// Reap the child whenever it exits — killed by chaos, by Relaunch, or on
	// its own — so no zombie holds the pid table (the exit status itself is
	// uninteresting: the health model judges the shard by its socket).
	go func() { _ = cmd.Wait(); close(done) }()
	r.procs[shard], r.waits[shard] = cmd, done
	return nil
}

// Relaunch hard-kills shard i's current child (if any) and starts a fresh
// one with the identical command line: same index, same address, same WAL
// directory, so the new process recovers the durable state and rejoins as
// the same shard.
func (r *ProcessRelauncher) Relaunch(shard int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.killLocked(shard); err != nil {
		return err
	}
	return r.startLocked(shard)
}

// killLocked SIGKILLs the current child and waits for the reaper, freeing
// the shard's listen address before a relaunch. SIGKILL also fells a
// SIGSTOPped child, which is exactly the supervisor's case: a paused shard
// that never resumed is indistinguishable from a dead one and gets replaced.
func (r *ProcessRelauncher) killLocked(shard int) error {
	cmd := r.procs[shard]
	if cmd == nil {
		return nil
	}
	// Deliberate real-process kill: this is the supervisor replacing a shard
	// child it owns, not chaos — the WAL holds every acked mutation, so the
	// kill can cost wall time but never state.
	_ = cmd.Process.Kill()
	select {
	case <-r.waits[shard]:
	case <-time.After(10 * time.Second):
		return fmt.Errorf("supervisor: shard %d child (pid %d) did not exit after SIGKILL", shard, cmd.Process.Pid)
	}
	r.procs[shard], r.waits[shard] = nil, nil
	return nil
}

// Signal delivers sig to shard i's current child (the chaos orchestrator's
// kill/pause/resume lever). Signaling a shard with no child is an error.
func (r *ProcessRelauncher) Signal(shard int, sig os.Signal) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	cmd := r.procs[shard]
	if cmd == nil {
		return fmt.Errorf("supervisor: shard %d has no child to signal", shard)
	}
	if err := cmd.Process.Signal(sig); err != nil {
		return fmt.Errorf("supervisor: signaling shard %d: %w", shard, err)
	}
	return nil
}

// Pid reports shard i's current child pid (0 if none) — for logs and tests.
func (r *ProcessRelauncher) Pid(shard int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.procs[shard] == nil {
		return 0
	}
	return r.procs[shard].Process.Pid
}

// StopAll SIGKILLs every child and reaps them — shutdown/cleanup path.
func (r *ProcessRelauncher) StopAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.procs {
		_ = r.killLocked(i)
	}
}

// SIGSTOP and SIGCONT re-exported for chaos callers without a syscall import.
var (
	SigStop os.Signal = syscall.SIGSTOP
	SigCont os.Signal = syscall.SIGCONT
	SigKill os.Signal = syscall.SIGKILL
)
