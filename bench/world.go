package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/image"
	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/platform"
	"github.com/adaudit/impliedidentity/internal/population"
	"github.com/adaudit/impliedidentity/internal/privacy"
	"github.com/adaudit/impliedidentity/internal/voter"
)

// recorder collects what one run measured: per verb the raw client-observed
// latencies and the CPU time per operation, per unit of work its wall and CPU
// time, and the tally of operations and correctness checks attempted and
// failed.
type recorder struct {
	mu        sync.Mutex
	verbs     [numVerbs][]float64 // wall milliseconds, one sample per operation
	verbCPU   [numVerbs][]float64 // CPU milliseconds per operation, one sample per unit
	units     []float64           // wall seconds
	unitCPU   []float64           // CPU seconds
	attempted int
	failed    int
	problems  []string
	// rssMB is the process's peak RSS read when unit number rssAfter
	// completed; 0 until then.
	rssAfter int
	rssMB    float64
	// cal, when set, samples the host's pace between units of work.
	cal *calibrator
}

// cpuPhases attributes the process's CPU time within one unit of work to the
// verb whose operations were issued since the clock was last read. It relies
// on the workload having one operation in flight at a time.
type cpuPhases struct {
	rec         *recorder
	begun, last float64
}

func (r *recorder) beginUnit() *cpuPhases {
	now := cpuSeconds()
	return &cpuPhases{rec: r, begun: now, last: now}
}

// done credits the CPU time since the previous call to ops operations of verb.
func (p *cpuPhases) done(verb, ops int) {
	now := cpuSeconds()
	p.rec.cpu(verb, now-p.last, ops)
	p.last = now
}

// end records the unit: its wall time and the CPU time since beginUnit.
func (p *cpuPhases) end(wall time.Duration) {
	p.rec.unit(wall, cpuSeconds()-p.begun)
}

// cpu records that ops operations of verb used cpuS seconds of CPU together.
func (r *recorder) cpu(verb int, cpuS float64, ops int) {
	if ops == 0 {
		return
	}
	r.mu.Lock()
	r.verbCPU[verb] = append(r.verbCPU[verb], 1000*cpuS/float64(ops))
	r.mu.Unlock()
}

// op records one advertiser operation. A failed operation counts against the
// run and contributes no latency sample.
func (r *recorder) op(verb int, d time.Duration, err error) {
	if err == nil {
		r.sample(verb, float64(d)/float64(time.Millisecond))
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf("%s: %v", verbNames[verb], err))
	}
}

// sample records one successful operation that took ms milliseconds.
func (r *recorder) sample(verb int, ms float64) {
	r.mu.Lock()
	r.attempted++
	r.verbs[verb] = append(r.verbs[verb], ms)
	r.mu.Unlock()
}

// timed runs f as one operation of the given verb.
func (r *recorder) timed(verb int, f func() error) error {
	start := time.Now()
	err := f()
	r.op(verb, time.Since(start), err)
	return err
}

func (r *recorder) unit(wall time.Duration, cpuS float64) {
	r.mu.Lock()
	r.units = append(r.units, wall.Seconds())
	r.unitCPU = append(r.unitCPU, cpuS)
	if len(r.units) == r.rssAfter {
		r.rssMB = peakRSSMB()
	}
	r.mu.Unlock()
	r.cal.tick()
}

// check records one correctness gate.
func (r *recorder) check(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, "check failed: "+fmt.Sprintf(format, args...))
	}
}

// voterWorld is the FL-registry world the serving workloads share: one
// population, one behaviour model, and the PII hash pool audiences draw from.
type voterWorld struct {
	pop    *population.Population
	behave *population.Behavior
	hashes []string

	generatePerS float64 // voter.Generate records/s
	buildPerS    float64 // population.Build users/s
}

func buildVoterWorld(seed int64, voters int) (*voterWorld, error) {
	cfg := voter.DefaultGeneratorConfig(demo.StateFL, seed+1)
	cfg.NumVoters = voters
	start := time.Now()
	fl, err := voter.Generate(cfg)
	if err != nil {
		return nil, err
	}
	genS := time.Since(start).Seconds()
	start = time.Now()
	pop, err := population.Build(population.Config{Seed: seed + 3}, fl)
	if err != nil {
		return nil, err
	}
	buildS := time.Since(start).Seconds()
	behave, err := population.NewBehavior(population.DefaultBehaviorConfig())
	if err != nil {
		return nil, err
	}
	w := &voterWorld{
		pop: pop, behave: behave,
		hashes:       make([]string, 0, len(fl.Records)),
		generatePerS: float64(len(fl.Records)) / genS,
		buildPerS:    float64(pop.Len()) / buildS,
	}
	for i := range fl.Records {
		r := &fl.Records[i]
		w.hashes = append(w.hashes, population.HashPII(r.FirstName, r.LastName, r.Address, r.ZIP))
	}
	return w, nil
}

// trainingRows is the engagement-log size every benchmark platform trains
// its eAR model on (adpopbench's value; set-up cost, not measured work).
const trainingRows = 12000

// newPlatform trains a platform over the world. Ad review never rejects, so
// a fixed seed issues an exactly reproducible request sequence.
func newPlatform(pop *population.Population, behave *population.Behavior, seed int64) (*platform.Platform, error) {
	cfg := platform.DefaultConfig(seed + 4)
	cfg.Training.LogRows = trainingRows
	cfg.ReviewRejectProb = 0
	return platform.New(cfg, pop, behave)
}

// audienceMatchUs uploads hashes as one custom audience straight into p and
// returns the PII-matching cost per hash in microseconds (0 if it fails): what
// every create_audience request pays, without the wire.
func audienceMatchUs(p *platform.Platform, name string, hashes []string) (*platform.CustomAudience, float64) {
	start := time.Now()
	ca, err := p.CreateCustomAudience(name, hashes)
	if err != nil {
		return nil, 0
	}
	return ca, float64(time.Since(start).Microseconds()) / float64(len(hashes))
}

// benchPrivacy is the insights policy of the serving workloads: k=5, ε=1.
func benchPrivacy(seed int64) privacy.Config {
	return privacy.Config{Level: privacy.LevelKAnonDP, K: 5, Epsilon: 1, Seed: seed + 5}
}

// fourProfiles is the paired ad set of the day workloads: the four
// race × gender adult images, as in the audit's controlled campaigns.
var fourProfiles = []demo.Profile{
	{Gender: demo.GenderMale, Race: demo.RaceWhite, Age: demo.ImpliedAdult},
	{Gender: demo.GenderMale, Race: demo.RaceBlack, Age: demo.ImpliedAdult},
	{Gender: demo.GenderFemale, Race: demo.RaceWhite, Age: demo.ImpliedAdult},
	{Gender: demo.GenderFemale, Race: demo.RaceBlack, Age: demo.ImpliedAdult},
}

// insightsDigest canonicalizes the platform's delivery reports for ids the
// way cmd/adpopbench does: ad IDs normalized to creation order, map cells
// sorted. It also returns the impressions served.
func insightsDigest(p *platform.Platform, ids []string) (string, int64, error) {
	h := sha256.New()
	var impressions int64
	for i, id := range ids {
		st, err := p.Insights(id)
		if err != nil {
			return "", 0, err
		}
		impressions += int64(st.Impressions)
		fmt.Fprintf(h, "ad#%d|%d|%d|%d|%.6f|%v|", i, st.Impressions, st.Reach, st.Clicks, st.SpendCents, st.HourlySeries)
		cells := make([]platform.BreakdownKey, 0, len(st.Breakdown))
		for k := range st.Breakdown {
			cells = append(cells, k)
		}
		sort.Slice(cells, func(a, c int) bool {
			ka, kc := cells[a], cells[c]
			if ka.Age != kc.Age {
				return ka.Age < kc.Age
			}
			if ka.Gender != kc.Gender {
				return ka.Gender < kc.Gender
			}
			return ka.Region < kc.Region
		})
		for _, k := range cells {
			fmt.Fprintf(h, "%d/%d/%d=%d|", k.Age, k.Gender, k.Region, st.Breakdown[k])
		}
		races := make([]demo.Race, 0, len(st.RaceOracle))
		for r := range st.RaceOracle {
			races = append(races, r)
		}
		sort.Slice(races, func(a, c int) bool { return races[a] < races[c] })
		for _, r := range races {
			fmt.Fprintf(h, "r%d=%d|", r, st.RaceOracle[r])
		}
	}
	return hex.EncodeToString(h.Sum(nil)), impressions, nil
}

// scenarioSpec is one virtual advertiser's inputs, fully decided by the
// workload seed and the scenario index before any timer starts: upload an
// audience, create a campaign, create the ads, deliver one day, poll
// insights. Object IDs the platform assigns are filled in at run time.
type scenarioSpec struct {
	Index       int                             `json:"index"`
	Audience    marketing.CreateAudienceRequest `json:"audience"`
	Campaign    marketing.CreateCampaignRequest `json:"campaign"`
	Ads         []marketing.CreateAdRequest     `json:"ads"`
	DeliverSeed int64                           `json:"deliver_seed"`
}

// genScenario draws scenario idx: a contiguous window of the hash pool at a
// seeded offset, and one creative and budget per ad. Each scenario has its
// own RNG, so the sequence is independent of which client runs it.
func genScenario(seed int64, idx int, pool []string, audienceSize, ads int) scenarioSpec {
	rng := rand.New(rand.NewSource(seed + int64(idx)*7919))
	spec := scenarioSpec{
		Index:    idx,
		Audience: marketing.CreateAudienceRequest{Name: fmt.Sprintf("bench-aud-%d", idx)},
		Campaign: marketing.CreateCampaignRequest{Name: fmt.Sprintf("bench-cmp-%d", idx), Objective: "TRAFFIC"},
	}
	start := rng.Intn(len(pool))
	spec.Audience.PIIHashes = make([]string, audienceSize)
	for i := range spec.Audience.PIIHashes {
		spec.Audience.PIIHashes[i] = pool[(start+i)%len(pool)]
	}
	genders := []demo.Gender{demo.GenderFemale, demo.GenderMale}
	races := []demo.Race{demo.RaceBlack, demo.RaceWhite}
	ages := demo.AllImpliedAges()
	for a := 0; a < ads; a++ {
		prof := demo.Profile{
			Gender: genders[rng.Intn(len(genders))],
			Race:   races[rng.Intn(len(races))],
			Age:    ages[rng.Intn(len(ages))],
		}
		spec.Ads = append(spec.Ads, marketing.CreateAdRequest{
			Creative: marketing.WireCreative{
				Image:    marketing.WireImageFrom(image.FromProfile(prof)),
				Headline: "bench",
				LinkURL:  "https://example.test/offer",
			},
			DailyBudgetCents: 100 + rng.Intn(200),
		})
	}
	spec.DeliverSeed = rng.Int63()
	return spec
}

// wire is the scenario's request sequence as bytes; equal seeds must yield
// equal bytes.
func (s *scenarioSpec) wire() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // plain data; cannot fail
	}
	return b
}

// scenarioOutcome is what a scenario observed, kept for correctness checks.
type scenarioOutcome struct {
	adIDs    []string
	insights []*marketing.InsightsResponse // polls in issue order
	wall     float64                       // seconds, the scenario's root span
}

// suppression tallies the privatized responses among the polls and the
// breakdown cells they withheld.
func (o *scenarioOutcome) suppression() (responses, cells int64) {
	for _, r := range o.insights {
		if r.Privacy != nil {
			responses++
			cells += int64(r.Privacy.SuppressedCells)
		}
	}
	return responses, cells
}

// pollsPerAd is how many insights reads follow each delivered ad,
// alternating the full breakdown with a gender-only one — the polling
// pattern of the audit's data collection.
const pollsPerAd = 2

// runScenario drives one advertiser through the API, timing every call from
// the client side into rc's recorder (by verb) and series (by operation).
// workers is passed on the deliver call (0 = server default). When traced,
// the scenario is the root span of trace spec.Index and every call a child.
func runScenario(ctx context.Context, client *marketing.Client, spec *scenarioSpec, workers int, rc *runCtx, traced bool) (*scenarioOutcome, error) {
	rec, tr := rc.rec, rc.tr
	if !traced {
		tr = nil
	}
	out := &scenarioOutcome{}
	start := time.Now()
	cpu := rec.beginUnit()
	root := tr.begin(int64(spec.Index), 0, "scenario")
	defer func() {
		root.end()
		wall := time.Since(start)
		cpu.end(wall)
		out.wall = wall.Seconds()
	}()
	call := func(verb int, op string, f func(ctx context.Context) error) error {
		sp := tr.begin(int64(spec.Index), root.id(), "client "+op)
		cctx := ctx
		if sp != nil {
			cctx = withLink(ctx, link{trace: int64(spec.Index), parent: sp.id()})
		}
		opStart := time.Now()
		err := f(cctx)
		d := time.Since(opStart)
		sp.end()
		rec.op(verb, d, err)
		rc.ser.observe("op."+op, d)
		return err
	}

	var aud *marketing.CreateAudienceResponse
	if err := call(verbMutation, "create_audience", func(ctx context.Context) (err error) {
		aud, err = client.CreateAudience(ctx, spec.Audience.Name, spec.Audience.PIIHashes)
		return err
	}); err != nil {
		return nil, err
	}
	var cmp *marketing.CreateCampaignResponse
	if err := call(verbMutation, "create_campaign", func(ctx context.Context) (err error) {
		cmp, err = client.CreateCampaign(ctx, spec.Campaign)
		return err
	}); err != nil {
		return nil, err
	}
	for _, req := range spec.Ads {
		req.CampaignID = cmp.ID
		req.Targeting = marketing.WireTargeting{CustomAudienceIDs: []string{aud.ID}}
		var ad *marketing.AdResponse
		if err := call(verbMutation, "create_ad", func(ctx context.Context) (err error) {
			ad, err = client.CreateAd(ctx, req)
			return err
		}); err != nil {
			return nil, err
		}
		out.adIDs = append(out.adIDs, ad.ID)
	}
	cpu.done(verbMutation, 2+len(spec.Ads))
	if err := call(verbDeliver, "deliver", func(ctx context.Context) error {
		return client.DeliverWorkers(ctx, out.adIDs, spec.DeliverSeed, workers)
	}); err != nil {
		return nil, err
	}
	cpu.done(verbDeliver, 1)
	for p := 0; p < pollsPerAd; p++ {
		for _, id := range out.adIDs {
			var resp *marketing.InsightsResponse
			if err := call(verbInsights, "insights", func(ctx context.Context) (err error) {
				if p%2 == 1 {
					resp, err = client.InsightsBreakdown(ctx, id, "gender")
				} else {
					resp, err = client.Insights(ctx, id)
				}
				return err
			}); err != nil {
				return nil, err
			}
			out.insights = append(out.insights, resp)
		}
	}
	cpu.done(verbInsights, len(out.insights))
	return out, nil
}

// insightsBytes is the wire form of a scenario's polls, for byte comparison
// between a fleet and its single-process reference.
func insightsBytes(o *scenarioOutcome) []byte {
	b, err := json.Marshal(o.insights)
	if err != nil {
		panic(err) // plain data; cannot fail
	}
	return b
}
