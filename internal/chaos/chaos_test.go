package chaos

import (
	"fmt"
	"reflect"
	"testing"
)

func sched(t *testing.T, cfg Config) *Schedule {
	t.Helper()
	s, err := NewSchedule(cfg)
	if err != nil {
		t.Fatalf("NewSchedule: %v", err)
	}
	return s
}

// The schedule is a pure function of (seed, tick): same seed, same events,
// in any query order; different seeds, different schedules.
func TestSchedulePure(t *testing.T) {
	cfg := Config{Seed: 42, Shards: 3, Rate: 0.7, MinGap: 2}
	a := sched(t, cfg).Events(400)
	b := sched(t, cfg).Events(400)
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
	if !reflect.DeepEqual(s.Events(400), a) {
		t.Fatalf("schedule has hidden state")
	}
	cfg.Seed = 43
	if reflect.DeepEqual(sched(t, cfg).Events(400), a) {
		t.Fatalf("different seeds produced identical schedules")
	}
}

func TestScheduleBounds(t *testing.T) {
	s := sched(t, Config{Seed: 7, Shards: 2, Rate: 1, MinGap: 3})
	events := s.Events(300)
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
	if events := sched(t, Config{Seed: 7, Shards: 2, Rate: 0}).Events(1000); len(events) != 0 {
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

// Windows open at the scheduled tick and close exactly when they expire,
// and Quiesce closes everything still open.
func TestOrchestratorWindows(t *testing.T) {
	// MinGap 1 and rate 1 disturb every tick: plenty of windows to check.
	s := sched(t, Config{Seed: 11, Shards: 2, Rate: 1, MinGap: 1})
	target := newFakeTarget()
	o := NewOrchestrator(s, target)

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

// TestScheduleSeed1Pinned holds the chaos schedule's (seed → disturbance)
// mapping to literals taken before Schedule.At was moved onto
// faults.Schedule: the first 24 ticks of seed 1 over two shards at rate 0.6,
// which is the schedule scripts/chaos_soak.sh runs against real processes.
func TestScheduleSeed1Pinned(t *testing.T) {
	want := []Event{
		{Tick: 0, Shard: 0, Action: ActSlow, Ticks: 3},
		{Tick: 8, Shard: 0, Action: ActKill},
		{Tick: 12, Shard: 0, Action: ActPause, Ticks: 2},
	}
	if got := sched(t, Config{Seed: 1, Shards: 2, Rate: 0.6}).Events(24); !reflect.DeepEqual(got, want) {
		t.Fatalf("seed 1 draws %+v, pinned %+v", got, want)
	}
}

// A schedule built from an explicit list disturbs with exactly that list.
func TestScheduleOfExplicitEvents(t *testing.T) {
	events := []Event{
		{Tick: 3, Shard: 1, Action: ActKill},
		{Tick: 4, Shard: 0, Action: ActPartition, Ticks: 2},
	}
	s, err := ScheduleOf(2, events)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Events(50); !reflect.DeepEqual(got, events) {
		t.Fatalf("explicit schedule yields %+v, want %+v", got, events)
	}
	// %#v prints the list as the source of itself, which is how a shrunk
	// failing schedule is handed over for pinning.
	const src = `[]chaos.Event{chaos.Event{Tick:3, Shard:1, Action:"kill", Ticks:0}, chaos.Event{Tick:4, Shard:0, Action:"partition", Ticks:2}}`
	if got := fmt.Sprintf("%#v", events); got != src {
		t.Errorf("%%#v of the list:\n%s\nwant:\n%s", got, src)
	}
	for name, bad := range map[string][]Event{
		"two events in one tick": {{Tick: 1, Action: ActKill}, {Tick: 1, Shard: 1, Action: ActPause, Ticks: 2}},
		"a shard out of range":   {{Tick: 1, Shard: 2, Action: ActKill}},
		"an unknown action":      {{Tick: 1, Action: "explode"}},
	} {
		if _, err := ScheduleOf(2, bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// shrink drops every event the failure does not need and keeps the ones it
// does, in order.
func TestShrinkKeepsWhatTheFailureNeeds(t *testing.T) {
	events := sched(t, Config{Seed: 5, Shards: 3, Rate: 1, MinGap: 1}).Events(12)
	needed := []Event{events[2], events[7]}
	runs := 0
	fails := func(trial []Event) bool {
		runs++
		have := 0
		for _, e := range trial {
			if have < len(needed) && e == needed[have] {
				have++
			}
		}
		return have == len(needed)
	}
	if got := shrink(events, fails); !reflect.DeepEqual(got, needed) {
		t.Fatalf("shrunk to %+v, want %+v", got, needed)
	}
	if runs != len(events) {
		t.Errorf("%d trial runs for %d events: greedy shrinking tries each event once", runs, len(events))
	}
}
