package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	adaudit "github.com/adaudit/impliedidentity"
	"github.com/adaudit/impliedidentity/internal/core"
	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/population"
	"github.com/adaudit/impliedidentity/internal/voter"
)

// Sizing of the audit workload: the bench-scale lab (40 000 voters per
// state), with the synthetic-face discovery at the test preset's 2000
// samples — at 10 000 one repetition takes ~10 s and a run would hold one.
const (
	auditDiscovery      = 2000
	auditVotersPerState = 40_000 // core.ScaleBench's registry size, for the set-up probes
	auditShapeChecks    = 16
)

// auditStages are one audit repetition, in the order `adaudit run verify`
// runs them; each is a per-layer metric core.<stage>_s.
var auditStages = []string{"stock", "stock_capped", "synthetic", "employment", "poverty", "validate"}

// auditEnv is the paper's audit end to end through the public adaudit API.
// The audit offers no per-call hook, so the verbs' latencies and CPU times
// come from a timing transport on the lab's client in both passes; they are
// those of the round trip and exclude the client's JSON encode and decode.
type auditEnv struct {
	rc      *runCtx
	lab     *adaudit.Lab
	base    *http.Transport
	current atomic.Pointer[link]

	stageS      map[string][]float64
	digests     []string
	passed      []int
	httpS       []float64 // summed round-trip time per repetition
	httpN       []float64 // requests per repetition
	traced      []float64 // repetition wall, spans on
	untraced    []float64 // repetition wall, spans off
	lastStock   *adaudit.StockResult
	lastEmploy  *adaudit.EmploymentResult
	consumedOps map[string]int // ser samples already folded into the recorder
}

func setupAudit(rc *runCtx) (env, error) {
	lab, err := adaudit.NewLab(adaudit.LabConfig{Seed: rc.cfg.seed, Scale: adaudit.ScaleBench})
	if err != nil {
		return nil, err
	}
	e := &auditEnv{rc: rc, lab: lab, base: newBaseTransport(), stageS: map[string][]float64{}, consumedOps: map[string]int{}}
	lab.Client.SetTransport(&timingTransport{
		base: e.base, prefix: "client", ser: rc.ser, tr: rc.tr, current: &e.current, cpu: true,
	})
	return e, nil
}

func (e *auditEnv) close() {
	e.base.CloseIdleConnections()
	_ = e.lab.Close() // closing the listener of a lab that is being discarded
}

// warm needs nothing: the lab trains its models in NewLab, and the first
// repetition's extra cost (connection set-up) is a handful of microseconds
// against seconds.
func (e *auditEnv) warm() error { return nil }

// repetition runs the six experiments and the shape checks once. Every
// repetition uses the same seeds, so its deliveries must repeat exactly.
func (e *auditEnv) repetition(rep int, traced bool) error {
	seed := e.rc.cfg.seed
	tr := e.rc.tr
	if !traced {
		tr = nil
	}
	trace := int64(rep)
	cal := e.rc.rec.cal
	start, calWall := time.Now(), cal.spentWall
	cpuStart, calCPU := cpuSeconds(), cal.spentCPU
	root := tr.begin(trace, 0, "audit")
	stage := func(name string, f func() error) error {
		sp := tr.begin(trace, root.id(), "core "+name)
		if sp != nil {
			e.current.Store(&link{trace: trace, parent: sp.id()})
			defer e.current.Store(nil)
		}
		s := time.Now()
		err := f()
		e.stageS[name] = append(e.stageS[name], time.Since(s).Seconds())
		sp.end()
		// A repetition lasts seconds and the audit offers no other place to
		// stop: take the host's pace after every stage.
		cal.tick()
		return err
	}

	var (
		stock, capped *adaudit.StockResult
		syn           *adaudit.SyntheticResult
		emp           *adaudit.EmploymentResult
		pov           *adaudit.PovertyResult
		val           *adaudit.ValidationResult
	)
	steps := []func() error{
		func() (err error) {
			stock, err = e.lab.RunStockExperiment(adaudit.StockExperimentOptions{Seed: seed + 100})
			return err
		},
		func() (err error) {
			capped, err = e.lab.RunStockExperiment(adaudit.StockExperimentOptions{Seed: seed + 200, AgeMax: 45, BudgetCents: 350})
			return err
		},
		func() (err error) {
			syn, err = e.lab.RunSyntheticExperiment(adaudit.SyntheticExperimentOptions{Seed: seed + 300, DiscoverySamples: auditDiscovery})
			return err
		},
		func() (err error) {
			emp, err = e.lab.RunEmploymentExperiment(adaudit.EmploymentExperimentOptions{
				Seed: seed + 400, Pipeline: syn.Pipeline, DiscoverySamples: auditDiscovery,
			})
			return err
		},
		func() (err error) {
			pov, err = e.lab.RunPovertyExperiment(adaudit.PovertyExperimentOptions{Seed: seed + 500})
			return err
		},
		func() (err error) {
			val, err = e.lab.ValidateRaceInference(2, seed+940)
			return err
		},
	}
	for i, step := range steps {
		if err := stage(auditStages[i], step); err != nil {
			root.end()
			return fmt.Errorf("audit %s: %w", auditStages[i], err)
		}
	}
	checks := adaudit.ShapeChecks(stock, capped, syn, emp, pov, val)
	root.end()
	// The calibration samples between the stages are not the audit's work.
	wall := time.Since(start) - (cal.spentWall - calWall)
	e.rc.rec.unit(wall, cpuSeconds()-cpuStart-(cal.spentCPU-calCPU))
	if traced {
		e.traced = append(e.traced, wall.Seconds())
	} else {
		e.untraced = append(e.untraced, wall.Seconds())
	}

	// Outside the timer: tally the checks, digest the deliveries, and fold
	// the transport's round-trip samples into the verb series.
	passed := 0
	for _, c := range checks {
		if c.Pass {
			passed++
		}
	}
	e.passed = append(e.passed, passed)
	// The poverty experiment's hostile ad review draws from the platform's
	// review RNG, which advances across repetitions; its deliveries
	// legitimately differ and stay out of the digest.
	h := sha256.New()
	fmt.Fprintf(h, "%v|%v|%v|%v", stock.Deliveries, capped.Deliveries, syn.Deliveries, emp.Deliveries)
	e.digests = append(e.digests, hex.EncodeToString(h.Sum(nil)))
	e.lastStock, e.lastEmploy = stock, emp
	e.foldHTTP()
	return nil
}

// foldHTTP moves the round-trip samples the transport saw since the last
// call into the recorder's verb series and the per-repetition HTTP totals.
// A repetition's delivery days are six different sizes, the same six every
// repetition, so their pooled median would be whichever size happens to sit
// in the middle; the repetition contributes its mean day instead.
func (e *auditEnv) foldHTTP() {
	fresh := func(name string) []float64 {
		all := e.rc.ser.samples(name)
		out := all[e.consumedOps[name]:]
		e.consumedOps[name] = len(all)
		return out
	}
	var sumMs float64
	var n int
	var cpuMs [numVerbs]float64
	var ops [numVerbs]int
	for _, op := range advertiserOps {
		wall := fresh("client." + op)
		n += len(wall)
		var opMs float64
		for _, ms := range wall {
			opMs += ms
		}
		sumMs += opMs
		verb := verbIndex(op)
		if verb == verbDeliver {
			if len(wall) > 0 {
				e.rc.rec.sample(verb, opMs/float64(len(wall)))
			}
		} else {
			for _, ms := range wall {
				e.rc.rec.sample(verb, ms)
			}
		}
		for _, ms := range fresh("client.cpu." + op) {
			cpuMs[verb] += ms
			ops[verb]++
		}
	}
	for verb := range cpuMs {
		e.rc.rec.cpu(verb, cpuMs[verb]/1000, ops[verb])
	}
	e.httpS = append(e.httpS, sumMs/1000)
	e.httpN = append(e.httpN, float64(n))
}

func (e *auditEnv) measure(deadline time.Time) error {
	e.consumedOps = map[string]int{} // the harness emptied the series after warm-up
	for rep := 0; time.Now().Before(deadline); rep++ {
		// The traced pass alternates spans on and off by repetition, so the
		// same run yields the tracing overhead.
		if err := e.repetition(rep, e.rc.cfg.trace && rep%2 == 0); err != nil {
			e.rc.rec.check(false, "%v", err)
			break
		}
	}
	return nil
}

// verify: every repetition's deliveries must be identical; for the golden
// seed they must equal bench/golden.json and all 16 shape checks must pass
// (on other seeds the count is reported, not gated: the checks are
// statistical statements about one seeded world).
func (e *auditEnv) verify() error {
	rec := e.rc.rec
	for i, d := range e.digests {
		rec.check(d == e.digests[0], "repetition %d delivery digest %s != repetition 0 digest %s", i, d, e.digests[0])
	}
	if len(e.digests) > 0 {
		checkGolden(e.rc, onAudit, e.digests[0])
	}
	if e.rc.cfg.seed == golden.Seed {
		for i, p := range e.passed {
			rec.check(p == auditShapeChecks, "repetition %d passed %d of %d shape checks", i, p, auditShapeChecks)
		}
	}
	return nil
}

func (e *auditEnv) layers(out map[string]float64) {
	for _, s := range auditStages {
		out["core."+s+"_s"] = median(e.stageS[s])
	}
	out["marketing.audit_http_s"] = median(e.httpS)
	out["marketing.audit_http_requests"] = median(e.httpN)
	if len(e.passed) > 0 {
		out["core.shape_checks_passed"] = float64(e.passed[len(e.passed)-1])
	}
	out["bench.trace_overhead_pct"] = overheadPct(e.traced, e.untraced)

	// Probes: the layers the audit runs inside NewLab and inside its
	// experiments, called directly at the audit's sizes.
	seed := e.rc.cfg.seed
	start := time.Now()
	if _, err := adaudit.NewSyntheticPipeline(auditDiscovery, seed+320); err == nil {
		out["gan.pipeline_s"] = time.Since(start).Seconds()
	}
	if e.lastStock != nil {
		out["stats.table4_ms"] = probeMs(func() error {
			_, err := core.RegressTable4(e.lastStock.Deliveries, core.AgeTarget65Plus)
			return err
		})
	}
	if e.lastEmploy != nil {
		out["stats.table5_ms"] = probeMs(func() error {
			_, err := core.RegressTable5(e.lastEmploy.Deliveries)
			return err
		})
	}
	cfg := voter.DefaultGeneratorConfig(demo.StateFL, seed+1)
	cfg.NumVoters = auditVotersPerState
	start = time.Now()
	if fl, err := voter.Generate(cfg); err == nil {
		out["voter.generate_records_per_s"] = float64(len(fl.Records)) / time.Since(start).Seconds()
		start = time.Now()
		if pop, err := population.Build(population.Config{Seed: seed + 3}, fl); err == nil {
			out["population.build_users_per_s"] = float64(pop.Len()) / time.Since(start).Seconds()
		}
	}
}

// probeMs is the median wall time of f over a few calls, in milliseconds; 0
// if f fails.
func probeMs(f func() error) float64 {
	var ms []float64
	for i := 0; i < 9; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0
		}
		ms = append(ms, float64(time.Since(start))/float64(time.Millisecond))
	}
	return median(ms)
}
