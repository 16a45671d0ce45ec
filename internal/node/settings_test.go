package node_test

import (
	"flag"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/adaudit/impliedidentity/internal/chaos"
	"github.com/adaudit/impliedidentity/internal/coordinator"
	"github.com/adaudit/impliedidentity/internal/core"
	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/faults"
	"github.com/adaudit/impliedidentity/internal/gan"
	"github.com/adaudit/impliedidentity/internal/loadgen"
	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/node"
	"github.com/adaudit/impliedidentity/internal/platform"
	"github.com/adaudit/impliedidentity/internal/population"
	"github.com/adaudit/impliedidentity/internal/privacy"
	"github.com/adaudit/impliedidentity/internal/store"
	"github.com/adaudit/impliedidentity/internal/voter"
)

// exemptions is every value of a walked field that the field's check accepts,
// with what it means there: "Type.Field=value" (value -1, 0, NaN, "" or nil;
// "any" covers them all). The field's comment states the same meaning. A
// value that is not listed here must be refused, with an error naming the
// field.
var exemptions = map[string]string{
	"platform.Config.Seed=any":                          "a seed",
	"platform.Config.Training.Seed=any":                 "a seed",
	"platform.Config.ValueNoise=0":                      "no value noise",
	"platform.Config.ReviewRejectProb=0":                "every ad passes review",
	"platform.Config.FrequencyCap=0":                    "no frequency cap",
	"population.Config.Seed=any":                        "a seed",
	"population.Config.BaseMatchRate=0":                 "0.65",
	"population.Config.TravelProb=0":                    "0.004",
	"population.Config.FLActivityBoost=0":               "1",
	"population.BehaviorConfig.AffinityScale=0":         "no content-demographic coupling",
	"population.BehaviorConfig.RaceHomophily=-1":        "a signed log-odds weight",
	"population.BehaviorConfig.RaceHomophily=0":         "the pattern removed",
	"population.BehaviorConfig.GenderAffinity=-1":       "a signed log-odds weight",
	"population.BehaviorConfig.GenderAffinity=0":        "the pattern removed",
	"population.BehaviorConfig.AgeProximity=-1":         "a signed log-odds weight",
	"population.BehaviorConfig.AgeProximity=0":          "the pattern removed",
	"population.BehaviorConfig.ChildToWomen=-1":         "a signed log-odds weight",
	"population.BehaviorConfig.ChildToWomen=0":          "the pattern removed",
	"population.BehaviorConfig.YoungWomenToOlderMen=-1": "a signed log-odds weight",
	"population.BehaviorConfig.YoungWomenToOlderMen=0":  "the pattern removed",
	"population.BehaviorConfig.JobComposition=-1":       "a signed log-odds weight",
	"population.BehaviorConfig.JobComposition=0":        "the pattern removed",
	`store.Options.Fsync=""`:                            "FsyncAlways",
	"store.Options.SnapshotEvery=0":                     "no automatic snapshots",
	"faults.Config.Seed=any":                            "a seed",
	"faults.Config.Rate=0":                              "no faults injected",
	"faults.Config.Kinds=nil":                           "every kind",
	"chaos.Config.Seed=any":                             "a seed",
	"chaos.Config.Rate=0":                               "no disturbance",
	"chaos.Config.Actions=nil":                          "every action",
	"chaos.Config.MinGap=0":                             "every 4th tick",
	"coordinator.Config.MaxFanout=0":                    "all shards at once",
	"coordinator.Config.DayAttempts=0":                  "5",
	"coordinator.Config.DayBackoff=0":                   "2s",
	"coordinator.Config.ProbeInterval=0":                "500ms",
	"coordinator.Config.ProbeTimeout=0":                 "2s",
	"coordinator.Config.RelaunchAfter=0":                "3s",
	"coordinator.Config.RelaunchBackoff=0":              "5s",
	"privacy.Config.Level=0":                            "LevelOff",
	"privacy.Config.K=0":                                "no suppression",
	"privacy.Config.Epsilon=0":                          "no noise (below LevelKAnonDP)",
	"privacy.Config.Seed=any":                           "a seed",
	"loadgen.Config.Seed=any":                           "a seed",
	"loadgen.Config.DeliveryWorkers=0":                  "the server's shard count",
	"core.LabConfig.Seed=any":                           "a seed",
	"core.LabConfig.Scale=0":                            "ScaleTest",
	"core.LabConfig.TravelProb=0":                       "population.Config's",
	"core.LabConfig.FLActivityBoost=0":                  "population.Config's",
	"core.Evaluation.Seed=any":                          "a seed",
	"core.Evaluation.Scale=0":                           "ScaleTest",
	"node.WorldConfig.Seed=any":                         "a seed",
	"core.StockExperimentOptions.PerPerson=0":           "5",
	"core.StockExperimentOptions.BudgetCents=0":         "200",
	"core.StockExperimentOptions.AgeMax=0":              "no age limit",
	"core.StockExperimentOptions.Seed=any":              "a seed",
	"core.SyntheticExperimentOptions.Seed=any":          "a seed",
	"core.EmploymentExperimentOptions.Seed=any":         "a seed",
	"core.PovertyExperimentOptions.Seed=any":            "a seed",
	`core.CampaignConfig.Objective=""`:                  "TRAFFIC",
	`core.CampaignConfig.Special=""`:                    "NONE (the platform's reading)",
	"core.CampaignConfig.AgeMax=0":                      "no age limit",
	"core.CampaignConfig.AccountAge=0":                  "2019",
	"core.CampaignConfig.Seed=any":                      "a seed",
	`core.CampaignConfig.Headline=""`:                   "the project-management career headline",
	`core.CampaignConfig.LinkURL=""`:                    "the career-guide URL",
}

// subject is one walked configuration type: a value its check accepts, and
// the check its constructor runs. A costly check builds a world when it
// accepts, so the exempt values of its type are not run.
type subject struct {
	base   any
	check  func(any) error
	costly bool
}

// subjects are the configuration types the binaries' flags and
// core.Evaluation reach, and the paper's experiments, which run on one
// shared lab at the smallest sizes they accept.
func subjects(t *testing.T) []subject {
	lab, err := core.NewLab(core.LabConfig{Seed: 1, Scale: core.ScaleTest})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lab.Close() })
	specs, err := core.StockSpecs(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	auds, err := lab.DefaultSplitAudiences("walk", 1)
	if err != nil {
		t.Fatal(err)
	}
	// onLab runs an experiment; a refusal must leave the lab's inventory as
	// it was, having come before any request.
	onLab := func(run func() error) error {
		before := lab.Platform.Inventory()
		err := run()
		if err != nil && !reflect.DeepEqual(before, lab.Platform.Inventory()) {
			t.Errorf("refused after a request: %v", err)
		}
		return err
	}
	gen := voter.DefaultGeneratorConfig(demo.StateFL, 1)
	gen.NumVoters = 300
	client, err := marketing.NewClient("http://127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	return []subject{
		{base: platform.DefaultConfig(1), check: func(v any) error { return v.(platform.Config).Validate() }},
		{base: population.Config{Seed: 1}, check: func(v any) error {
			_, err := population.Stream(v.(population.Config), 64, gen)
			return err
		}},
		{base: population.DefaultBehaviorConfig(), check: func(v any) error {
			_, err := population.NewBehavior(v.(population.BehaviorConfig))
			return err
		}},
		{base: store.Options{Dir: dir}, check: func(v any) error {
			_, err := store.Open(v.(store.Options))
			return err
		}},
		{base: faults.Config{Seed: 1, Rate: 0.5}, check: func(v any) error {
			_, err := faults.New(v.(faults.Config), nil)
			return err
		}},
		{base: chaos.Config{Seed: 1, Shards: 2, Rate: 0.5}, check: func(v any) error {
			_, err := chaos.NewSchedule(v.(chaos.Config))
			return err
		}},
		{base: coordinator.Config{Backends: []string{"http://127.0.0.1:1"}}, check: func(v any) error {
			_, err := coordinator.New(v.(coordinator.Config), nil)
			return err
		}},
		{base: privacy.Config{Level: privacy.LevelKAnon, K: 5, Seed: 1}, check: func(v any) error { return v.(privacy.Config).Validate() }},
		{base: loadgen.Config{Seed: 1, Workers: 1, Scenarios: 1, AdsPerCampaign: 1, AudienceSize: 1, Hashes: []string{"h"}},
			check: func(v any) error {
				_, err := loadgen.New(v.(loadgen.Config), client)
				return err
			}},
		{base: core.LabConfig{Seed: 1, Behavior: population.DefaultBehaviorConfig(), TravelProb: 0.004, FLActivityBoost: 1},
			costly: true, check: func(v any) error {
				lab, err := core.NewLab(v.(core.LabConfig))
				if err == nil {
					err = lab.Close()
				}
				return err
			}},
		{base: core.Evaluation{Seed: 1}, costly: true, check: func(v any) error {
			e := v.(core.Evaluation)
			lab, err := e.Lab()
			if err == nil {
				err = lab.Close()
			}
			return err
		}},
		{base: node.WorldConfig{Seed: 1, Voters: 10, LogRows: 1000}, check: func(v any) error {
			_, err := node.WorldFlags(flag.NewFlagSet("world", flag.ContinueOnError), v.(node.WorldConfig))()
			return err
		}},
		{base: core.StockExperimentOptions{PerPerson: 1, BudgetCents: 200, AgeMax: 45, Seed: 1}, check: func(v any) error {
			return onLab(func() error { _, err := lab.RunStockExperiment(v.(core.StockExperimentOptions)); return err })
		}},
		{base: core.SyntheticExperimentOptions{DiscoverySamples: gan.MinDiscoverySamples, Seed: 1}, check: func(v any) error {
			return onLab(func() error { _, err := lab.RunSyntheticExperiment(v.(core.SyntheticExperimentOptions)); return err })
		}},
		{base: core.EmploymentExperimentOptions{DiscoverySamples: gan.MinDiscoverySamples, Seed: 1}, check: func(v any) error {
			return onLab(func() error { _, err := lab.RunEmploymentExperiment(v.(core.EmploymentExperimentOptions)); return err })
		}},
		{base: core.PovertyExperimentOptions{Seed: 1}, check: func(v any) error {
			return onLab(func() error { _, err := lab.RunPovertyExperiment(v.(core.PovertyExperimentOptions)); return err })
		}},
		{base: core.CampaignConfig{Name: "walk", Objective: "TRAFFIC", Special: "NONE", BudgetCents: 200, AgeMax: 45,
			AccountAge: 2019, Seed: 1, Headline: "h", LinkURL: "https://example.test"}, check: func(v any) error {
			return onLab(func() error { _, err := lab.RunPairedCampaign(v.(core.CampaignConfig), specs[:1], auds); return err })
		}},
	}
}

// trial is one value a field is set to.
type trial struct {
	name string
	v    reflect.Value
}

// trials are the values tried on a field of type t: -1 and 0 for a number,
// NaN too for a float, "" for a string, nil for a slice.
func trials(t reflect.Type) []trial {
	switch t.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return []trial{{"-1", reflect.ValueOf(-1).Convert(t)}, {"0", reflect.Zero(t)}}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return []trial{{"0", reflect.Zero(t)}}
	case reflect.Float32, reflect.Float64:
		return []trial{{"-1", reflect.ValueOf(-1.0).Convert(t)}, {"0", reflect.Zero(t)}, {"NaN", reflect.ValueOf(math.NaN()).Convert(t)}}
	case reflect.String:
		return []trial{{`""`, reflect.Zero(t)}}
	case reflect.Slice:
		return []trial{{"nil", reflect.Zero(t)}}
	}
	return nil // bool, pointer, interface, func: nothing to try
}

// walk calls visit for every exported field below t, by path and index,
// descending into nested structs except those of a listed type, which are
// walked as subjects of their own (their containers run their check).
func walk(path string, t reflect.Type, index []int, listed map[reflect.Type]bool, visit func(path string, index []int, f reflect.StructField)) {
	for i := range t.NumField() {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		idx := append(append([]int(nil), index...), i)
		switch {
		case f.Type.Kind() == reflect.Struct && listed[f.Type]:
		case f.Type.Kind() == reflect.Struct:
			walk(path+"."+f.Name, f.Type, idx, listed, visit)
		default:
			visit(path+"."+f.Name, idx, f)
		}
	}
}

// TestEverySettingIsRefusedOrDocumented sets each field of each subject, one
// at a time on its accepted base, to each trial value. The subject's check
// must refuse the value naming the field, or an exemption must cover it; an
// exempt value must be accepted, and every exemption must cover a field, so
// that removing any entry fails the test.
func TestEverySettingIsRefusedOrDocumented(t *testing.T) {
	subs := subjects(t)
	listed := map[reflect.Type]bool{}
	for _, s := range subs {
		listed[reflect.TypeOf(s.base)] = true
	}
	used := map[string]bool{}
	for _, s := range subs {
		root := reflect.TypeOf(s.base)
		if err := s.check(s.base); err != nil {
			t.Fatalf("%s base refused: %v", root, err)
		}
		walk(root.String(), root, nil, listed, func(path string, index []int, f reflect.StructField) {
			for _, tr := range trials(f.Type) {
				key := path + "=" + tr.name
				entry := key
				if _, ok := exemptions[entry]; !ok {
					entry = path + "=any"
				}
				meaning, exempt := exemptions[entry]
				used[entry] = used[entry] || exempt
				if exempt && s.costly {
					continue
				}
				v := reflect.New(root).Elem()
				v.Set(reflect.ValueOf(s.base))
				v.FieldByIndex(index).Set(tr.v)
				err := s.check(v.Interface())
				switch {
				case exempt && err != nil:
					t.Errorf("%s is exempt (%s) but refused: %v", key, meaning, err)
				case !exempt && err == nil:
					t.Errorf("%s is accepted, yet neither refused nor exempt", key)
				case !exempt && !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(f.Name)):
					t.Errorf("%s is refused without naming %s: %v", key, f.Name, err)
				}
			}
		})
	}
	for entry := range exemptions {
		if !used[entry] {
			t.Errorf("exemption %s covers no walked field", entry)
		}
	}
}
