package platform

import (
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/image"
	"github.com/adaudit/impliedidentity/internal/population"
	"github.com/adaudit/impliedidentity/internal/voter"
)

// memoWorld streams a small two-state world; equal seeds give identical
// worlds.
func memoWorld(t *testing.T, seed int64) (*population.Population, *population.Behavior) {
	t.Helper()
	fl := voter.DefaultGeneratorConfig(demo.StateFL, seed)
	fl.NumVoters = 3000
	nc := voter.DefaultGeneratorConfig(demo.StateNC, seed+1)
	nc.NumVoters = 3000
	pop, err := population.Stream(population.Config{Seed: seed + 2}, 1024, fl, nc)
	if err != nil {
		t.Fatal(err)
	}
	behave, err := population.NewBehavior(population.DefaultBehaviorConfig())
	if err != nil {
		t.Fatal(err)
	}
	return pop, behave
}

func mustNew(t *testing.T, cfg Config, pop *population.Population, behave *population.Behavior) *Platform {
	t.Helper()
	p, err := New(cfg, pop, behave)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func memoHas(key modelKey) bool {
	modelMemo.Lock()
	defer modelMemo.Unlock()
	_, ok := modelMemo.m[key]
	return ok
}

// newAdFolded creates one ad on p and returns the eAR model folded for its
// creative, which every ad of that creative created later must equal while
// p's model stays the same.
func newAdFolded(t *testing.T, p *Platform) foldedEAR {
	t.Helper()
	hashes := make([]string, 200)
	for i := range hashes {
		hashes[i] = p.pop.View(i).PIIKey()
	}
	ca, err := p.CreateCustomAudience("memo", hashes)
	if err != nil {
		t.Fatal(err)
	}
	ids := createAdSet(t, p, ObjectiveTraffic, ca.ID, []diffAdSpec{{img: image.FromProfile(demo.AllProfiles()[0]), budget: 300}})
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.ads[ids[0]].folded
}

// TestNewSharesModelsPerWorld: platforms built over one world with one Seed
// and Training share their classifier and initial eAR fit; any other world
// or configuration trains its own; a retrain stays on its platform; and the
// memo lets a dropped world go.
func TestNewSharesModelsPerWorld(t *testing.T) {
	cfg := testConfig(41)
	cfg.Training.LogRows = 2000
	pop, behave := memoWorld(t, 301)

	// Eight concurrent first calls train once and all get its result.
	plats := make([]*Platform, 8)
	errs := make([]error, len(plats))
	var wg sync.WaitGroup
	for i := range plats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			plats[i], errs[i] = New(cfg, pop, behave)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent New %d: %v", i, err)
		}
	}
	p := plats[0]
	for i, q := range plats[1:] {
		if q.vision != p.vision || q.ear != p.ear {
			t.Errorf("concurrent New %d has its own models", i+1)
		}
	}
	// A later New over the same world shares them too.
	q := mustNew(t, cfg, pop, behave)
	if q.vision != p.vision || q.ear != p.ear {
		t.Error("a second New over one world trained its own models")
	}

	// Another seed or another log size is another key.
	seed, rows := cfg, cfg
	seed.Seed++
	rows.Training.LogRows++
	for name, c := range map[string]Config{"seed": seed, "log rows": rows} {
		r := mustNew(t, c, pop, behave)
		if r.vision == p.vision || r.ear == p.ear {
			t.Errorf("a different %s shares the models", name)
		}
	}

	// An identical world built separately trains its own models, to the same
	// bits; once it is dropped, its entry goes.
	key, digest := func() (modelKey, string) {
		pop2, behave2 := memoWorld(t, 301)
		r := mustNew(t, cfg, pop2, behave2)
		if r.vision == p.vision || r.ear == p.ear {
			t.Error("a separately built world shares the models")
		}
		return modelKey{pop: weak.Make(pop2), behave: weak.Make(behave2), seed: cfg.Seed, training: cfg.Training}, earFitDigest(r.ear)
	}()
	if want := earFitDigest(p.ear); digest != want {
		t.Errorf("identical worlds fit different eAR models: %s, %s", digest, want)
	}
	for i := 0; memoHas(key); i++ {
		if i == 100 {
			t.Fatal("the memo still holds a dropped world's models")
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}

	// A retrain replaces its own platform's model only.
	shared, before := q.ear, earFitDigest(q.ear)
	folded := newAdFolded(t, q)
	if err := p.Retrain(TrainingConfig{Seed: 9, LogRows: 2000}); err != nil {
		t.Fatal(err)
	}
	if p.ear == shared {
		t.Fatal("Retrain kept the shared model")
	}
	if q.ear != shared || earFitDigest(q.ear) != before {
		t.Error("a retrain on one platform changed another's eAR model")
	}
	if got := newAdFolded(t, q); got != folded {
		t.Errorf("a new ad after another platform's retrain folds to %+v, want %+v", got, folded)
	}
	if got := newAdFolded(t, p); got == folded {
		t.Error("the retrained platform folds a new ad as the shared model does")
	}
}
