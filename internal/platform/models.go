package platform

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"weak"

	"github.com/adaudit/impliedidentity/internal/face"
	"github.com/adaudit/impliedidentity/internal/population"
)

// The platform's two models — its content classifier and the initial eAR
// fit — are fixed functions of the seed, the training configuration and the
// world, and nothing writes through either once New has them: the classifier
// is read-only, Retrain installs a fresh earModel on its own platform, and a
// population is immutable after its build. So every platform built over one
// world with one (Seed, Training) shares one trained pair: the shards of a
// fleet, every relaunch of one and every reference platform train once.

// modelKey is everything training reads. The world is held by weak pointers,
// so the memo never keeps a world alive.
type modelKey struct {
	pop      weak.Pointer[population.Population]
	behave   weak.Pointer[population.Behavior]
	seed     int64
	training TrainingConfig
}

// models is one key's trained pair. The first caller trains under once; the
// others wait for it and share its result, error included.
type models struct {
	once   sync.Once
	vision visionModel
	ear    *earModel
	err    error
}

// modelMemo holds one entry per live key. An entry goes when its population
// is collected (forgetModels).
var modelMemo = struct {
	sync.Mutex
	m map[modelKey]*models
}{m: map[modelKey]*models{}}

// errTrainingPanicked is what the callers after a training that panicked
// get: the once is spent, and nil models must not pass for trained ones.
var errTrainingPanicked = errors.New("platform: model training panicked")

// trainedModels returns the classifier and the initial eAR fit of a platform
// configured with cfg over the world, training them on the first call for
// the key.
func trainedModels(cfg Config, pop *population.Population, behave *population.Behavior) (visionModel, *earModel, error) {
	key := modelKey{pop: weak.Make(pop), behave: weak.Make(behave), seed: cfg.Seed, training: cfg.Training}
	modelMemo.Lock()
	e, ok := modelMemo.m[key]
	if !ok {
		e = &models{}
		modelMemo.m[key] = e
		runtime.AddCleanup(pop, forgetModels, key)
	}
	modelMemo.Unlock()
	e.once.Do(func() {
		e.err = errTrainingPanicked
		e.vision, e.ear, e.err = train(key.seed, key.training, pop, behave)
	})
	return e.vision, e.ear, e.err
}

// forgetModels drops a collected population's entry.
func forgetModels(key modelKey) {
	modelMemo.Lock()
	delete(modelMemo.m, key)
	modelMemo.Unlock()
}

// train trains the platform's own content classifier, independent of any
// classifier the auditor uses, then generates the engagement log and fits
// the eAR model on it.
func train(seed int64, training TrainingConfig, pop *population.Population, behave *population.Behavior) (visionModel, *earModel, error) {
	vision, err := face.Train(face.TrainOptions{CorpusSize: 4000, Seed: seed + 2, LabelNoise: 0.02})
	if err != nil {
		return nil, nil, fmt.Errorf("platform: training vision model: %w", err)
	}
	ear, err := trainEAR(training, pop, behave, vision)
	if err != nil {
		return nil, nil, err
	}
	return vision, ear, nil
}
