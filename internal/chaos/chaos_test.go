package chaos

import (
	"reflect"
	"testing"
	"time"
)

func sched(t *testing.T, cfg Config) *Schedule {
	t.Helper()
	s, err := NewSchedule(cfg)
	if err != nil {
		t.Fatalf("NewSchedule: %v", err)
	}
	return s
}

func collect(s *Schedule, ticks int) []Event {
	var out []Event
	for tick := 0; tick < ticks; tick++ {
		if e := s.At(tick); e != nil {
			out = append(out, *e)
		}
	}
	return out
}

// The schedule is a pure function of (seed, tick): same seed, same events,
// in any query order; different seeds, different schedules.
func TestSchedulePure(t *testing.T) {
	cfg := Config{Seed: 42, Shards: 3, Rate: 0.7, MinGap: 2}
	a := collect(sched(t, cfg), 400)
	b := collect(sched(t, cfg), 400)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules")
	}
	if len(a) == 0 {
		t.Fatalf("rate 0.7 over 400 ticks produced no events")
	}
	// Querying backwards must agree with querying forwards.
	s := sched(t, cfg)
	for tick := 399; tick >= 0; tick-- {
		e := s.At(tick)
		_ = e
	}
	if !reflect.DeepEqual(collect(s, 400), a) {
		t.Fatalf("schedule has hidden state")
	}
	cfg.Seed = 43
	if reflect.DeepEqual(collect(sched(t, cfg), 400), a) {
		t.Fatalf("different seeds produced identical schedules")
	}
}

func TestScheduleBounds(t *testing.T) {
	s := sched(t, Config{Seed: 7, Shards: 2, Rate: 1, MinGap: 3})
	events := collect(s, 300)
	if len(events) != 100 {
		t.Fatalf("rate 1 with MinGap 3 over 300 ticks: got %d events, want 100", len(events))
	}
	seenAction := map[Action]bool{}
	seenShard := map[int]bool{}
	for _, e := range events {
		if e.Tick%3 != 0 {
			t.Fatalf("event at tick %d violates MinGap 3", e.Tick)
		}
		if e.Shard < 0 || e.Shard >= 2 {
			t.Fatalf("event shard %d out of range", e.Shard)
		}
		if e.Action == ActKill && e.Ticks != 0 {
			t.Fatalf("kill event has a window: %+v", e)
		}
		if e.Action != ActKill && e.Ticks <= 0 {
			t.Fatalf("windowed event has no window: %+v", e)
		}
		seenAction[e.Action] = true
		seenShard[e.Shard] = true
	}
	if len(seenAction) != len(AllActions()) {
		t.Fatalf("100 rate-1 events drew only %v of %v", seenAction, AllActions())
	}
	if len(seenShard) != 2 {
		t.Fatalf("events never hit both shards: %v", seenShard)
	}
}

func TestScheduleRateZeroIsCalm(t *testing.T) {
	if events := collect(sched(t, Config{Seed: 7, Shards: 2, Rate: 0}), 1000); len(events) != 0 {
		t.Fatalf("rate 0 produced events: %+v", events)
	}
}

func TestParseActions(t *testing.T) {
	got, err := ParseActions(" kill , pause ")
	if err != nil {
		t.Fatalf("ParseActions: %v", err)
	}
	if !reflect.DeepEqual(got, []Action{ActKill, ActPause}) {
		t.Fatalf("got %v", got)
	}
	if all, _ := ParseActions("all"); !reflect.DeepEqual(all, AllActions()) {
		t.Fatalf("all: got %v", all)
	}
	if _, err := ParseActions("explode"); err == nil {
		t.Fatalf("unknown action parsed")
	}
}

// fakeTarget records the orchestrator's calls and exposes current state.
type fakeTarget struct {
	kills   []int
	paused  map[int]bool
	slow    map[int]bool
	blocked map[int]bool
	calls   []string
}

func newFakeTarget() *fakeTarget {
	return &fakeTarget{paused: map[int]bool{}, slow: map[int]bool{}, blocked: map[int]bool{}}
}

func (f *fakeTarget) Kill(shard int) error {
	f.kills = append(f.kills, shard)
	f.paused[shard] = false
	f.calls = append(f.calls, "kill")
	return nil
}
func (f *fakeTarget) Pause(shard int) error {
	f.paused[shard] = true
	f.calls = append(f.calls, "pause")
	return nil
}
func (f *fakeTarget) Resume(shard int) error {
	f.paused[shard] = false
	f.calls = append(f.calls, "resume")
	return nil
}
func (f *fakeTarget) SetSlow(shard int, on bool)      { f.slow[shard] = on }
func (f *fakeTarget) SetPartition(shard int, on bool) { f.blocked[shard] = on }

// fakeClock makes Run's cadence free.
type fakeClock struct{ now time.Time }

func (f *fakeClock) Now() time.Time        { return f.now }
func (f *fakeClock) Sleep(d time.Duration) { f.now = f.now.Add(d) }

// Windows open at the scheduled tick and close exactly when they expire,
// and Quiesce closes everything still open.
func TestOrchestratorWindows(t *testing.T) {
	// MinGap 1 and rate 1 disturb every tick: plenty of windows to check.
	s := sched(t, Config{Seed: 11, Shards: 2, Rate: 1, MinGap: 1})
	target := newFakeTarget()
	o := NewOrchestrator(s, target, &fakeClock{})

	open := map[string]int{} // "action/shard" -> expiry
	for tick := 0; tick < 50; tick++ {
		// Model expiry the way Step promises: windows close at or before
		// this tick, then the new event applies.
		for key, until := range open {
			if tick >= until {
				delete(open, key)
			}
		}
		e, err := o.Step(tick)
		if err != nil {
			t.Fatalf("Step(%d): %v", tick, err)
		}
		if e == nil {
			t.Fatalf("rate 1 MinGap 1 gave a calm tick %d", tick)
		}
		switch e.Action {
		case ActKill:
			delete(open, "pause/"+itoa(e.Shard))
		case ActPause:
			open["pause/"+itoa(e.Shard)] = tick + e.Ticks
		case ActSlow:
			open["slow/"+itoa(e.Shard)] = tick + e.Ticks
		case ActPartition:
			open["part/"+itoa(e.Shard)] = tick + e.Ticks
		}
		for shard := 0; shard < 2; shard++ {
			if want, got := open["pause/"+itoa(shard)] != 0, target.paused[shard]; want != got {
				t.Fatalf("tick %d shard %d paused=%v want %v", tick, shard, got, want)
			}
			if want, got := open["slow/"+itoa(shard)] != 0, target.slow[shard]; want != got {
				t.Fatalf("tick %d shard %d slow=%v want %v", tick, shard, got, want)
			}
			if want, got := open["part/"+itoa(shard)] != 0, target.blocked[shard]; want != got {
				t.Fatalf("tick %d shard %d blocked=%v want %v", tick, shard, got, want)
			}
		}
	}
	if err := o.Quiesce(); err != nil {
		t.Fatalf("Quiesce: %v", err)
	}
	for shard := 0; shard < 2; shard++ {
		if target.paused[shard] || target.slow[shard] || target.blocked[shard] {
			t.Fatalf("shard %d still disturbed after Quiesce", shard)
		}
	}
	if len(target.kills) == 0 {
		t.Fatalf("50 rate-1 ticks never killed")
	}
}

func itoa(n int) string { return string(rune('0' + n)) }

// Run applies the same events Step-by-Step application would, and sleeps
// once per tick on the injected clock.
func TestOrchestratorRunDeterminism(t *testing.T) {
	cfg := Config{Seed: 99, Shards: 3, Rate: 0.5, MinGap: 2}
	clock := &fakeClock{}
	a, err := NewOrchestrator(sched(t, cfg), newFakeTarget(), clock).Run(120, time.Second)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	b, err := NewOrchestrator(sched(t, cfg), newFakeTarget(), &fakeClock{}).Run(120, time.Second)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs with the same seed diverged")
	}
	want := (time.Time{}).Add(120 * time.Second)
	if !clock.now.Equal(want) {
		t.Fatalf("Run slept to %v, want %v", clock.now, want)
	}
}
