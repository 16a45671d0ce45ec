package main

import (
	_ "embed"
	"encoding/json"
)

// golden.json pins, for one seed, the outputs that must never move: the
// insights digest of the first measured day of each day workload and the
// delivery digest of one audit repetition. A change that alters an RNG draw
// anywhere in generation, matching, training or delivery flips one of them.
//
//go:embed golden.json
var goldenJSON []byte

type goldenFile struct {
	Seed    int64             `json:"seed"`
	Digests map[string]string `json:"digests"`
}

var golden = func() goldenFile {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic("bench/golden.json: " + err.Error())
	}
	return g
}()

// checkGolden gates got against the pinned digest when the run uses the
// golden seed; other seeds have only the self-consistency gates.
func checkGolden(rc *runCtx, key, got string) {
	if rc.cfg.seed != golden.Seed {
		return
	}
	rc.rec.check(got == golden.Digests[key], "%s digest %s != bench/golden.json %q", key, got, golden.Digests[key])
}
