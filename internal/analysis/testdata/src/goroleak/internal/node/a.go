// Package node is a goroleak fixture: its import-path suffix internal/node
// marks it long-lived, so every go statement needs a stop path — ctx
// cancellation, a done/stop channel shared with the spawner, or a WaitGroup
// join.
package node

import (
	"context"
	"sync"
)

// Super stands in for the fleet supervisor.
type Super struct {
	stop chan struct{}
}

// Start is the real supervisor's shape (false-positive regression): the
// loop selects on the stop channel and the context.
func (s *Super) Start(ctx context.Context) {
	go func() {
		for {
			select {
			case <-s.stop:
				return
			case <-ctx.Done():
				return
			}
		}
	}()
}

// Leak spins forever with nothing the spawner can pull.
func (s *Super) Leak() {
	go func() { // want "no reachable stop path"
		for {
			work()
		}
	}()
}

// FanOut joins every worker through the WaitGroup (false-positive
// regression).
func FanOut(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
}

// StartLoop's goroutine is a named in-package method; the stop check lives
// in its body, found transitively (false-positive regression).
func (s *Super) StartLoop(ctx context.Context) {
	go s.loop(ctx)
}

func (s *Super) loop(ctx context.Context) {
	for {
		if ctx.Err() != nil {
			return
		}
		work()
	}
}

// Reaper signals completion by closing a channel declared outside the
// goroutine — the cmd.Wait reaper idiom (false-positive regression).
func Reaper(wait func() error) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		_ = wait()
		close(done)
	}()
	return done
}

// Result joins through a send on the spawner's channel (false-positive
// regression).
func Result(release chan<- error) {
	go func() {
		release <- work2()
	}()
}

// Spawn launches an opaque function value: the analyzer cannot see a body,
// so deliberate fire-and-forget must be annotated.
func Spawn(fn func()) {
	go fn() // want "cannot resolve the goroutine's body"
}

// SelfChannel only touches a channel it made for itself — no one outside
// can stop it.
func SelfChannel() {
	go func() { // want "no reachable stop path"
		ch := make(chan int, 1)
		for {
			ch <- 1
			<-ch
		}
	}()
}

func work()        {}
func work2() error { return nil }
