package chaos

// The soak: one seeded advertiser workload run against a fleet while a
// schedule disturbs it, then the operations that fleet acknowledged replayed
// against an undisturbed fleet of the same shape. It passes iff the healed
// fleet and the replay end byte-identical on the whole wire-level insights
// surface, every acknowledged create is there exactly once, and everything
// the disturbed fleet refused it refused with a typed error.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"

	"github.com/adaudit/impliedidentity/internal/coordinator"
	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/image"
	"github.com/adaudit/impliedidentity/internal/marketing"
)

// Deployment is a fleet the soak can load, disturb and watch heal: the
// simulated Fleet, or cmd/adchaos's real child processes.
type Deployment interface {
	Target
	// Client is the advertiser's client, pointed at the router.
	Client() *marketing.Client
	// Coordinator is the router's coordinator: health states, inventory.
	Coordinator() *coordinator.Coordinator
	// Tick lets one workload tick of time pass, supervision running.
	Tick(ctx context.Context)
	Close() error
}

// The workload's fixed shape: a delivery day every dayEvery ticks, day k
// delivered under seed daySeedBase + k, and healTicks ticks for the fleet to
// heal in once the schedule has run out.
const (
	dayEvery    = 8
	daySeedBase = 9900
	healTicks   = 120
)

// SoakConfig is one soak.
type SoakConfig struct {
	Schedule *Schedule
	// Ticks is the length of the disturbed window: one operation a tick.
	Ticks int
	// Hashes is the PII upload of the workload's one audience.
	Hashes []string
	// Logf, if set, receives the account of the run.
	Logf func(format string, args ...any)
}

// Op is one operation the disturbed fleet acknowledged, and the unit the
// undisturbed fleet replays. Everything but the outcome (ID, Status) is
// decided by the workload from the tick and what was acknowledged before.
type Op struct {
	Kind   string // "ad", "appeal", "campaign", "day"
	Tick   int
	ID     string   // the created or appealed object
	Status string   // the ad's review status afterwards
	Seed   int64    // a day's delivery seed
	AdIDs  []string // the ads a committed day delivered
}

// SoakResult is what a passing soak saw.
type SoakResult struct {
	Events  []Event // disturbances applied
	Ops     []Op    // operations acknowledged, in order
	Refused int     // operations refused (each with a typed error)
	Digest  string  // of the insights surface, equal on both fleets
}

// Soak runs cfg against launch(true), a durable fleet it disturbs, then
// replays the acknowledged operations against launch(false).
func Soak(ctx context.Context, cfg SoakConfig, launch func(durable bool) (Deployment, error)) (*SoakResult, error) {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	res, err := soakDisturbed(ctx, cfg, launch)
	if err != nil {
		return nil, fmt.Errorf("disturbed fleet: %w", err)
	}
	cfg.Logf("replaying %d acknowledged operations on an undisturbed fleet", len(res.Ops))
	want, err := soakReplay(ctx, cfg, launch, res.Ops)
	if err != nil {
		return nil, fmt.Errorf("undisturbed fleet: %w", err)
	}
	if res.Digest != want {
		return nil, fmt.Errorf("DIVERGENCE: healed fleet digest %s != undisturbed replay %s", res.Digest, want)
	}
	return res, nil
}

// start launches a fleet and runs the workload's setup on it.
func start(ctx context.Context, cfg SoakConfig, launch func(bool) (Deployment, error), durable bool) (Deployment, *workload, error) {
	d, err := launch(durable)
	if err != nil {
		return nil, nil, err
	}
	w := &workload{client: d.Client(), hashes: cfg.Hashes, status: map[string]string{}}
	if err := w.setup(ctx); err != nil {
		return nil, nil, errors.Join(fmt.Errorf("workload setup: %w", err), d.Close())
	}
	return d, w, nil
}

func soakDisturbed(ctx context.Context, cfg SoakConfig, launch func(bool) (Deployment, error)) (_ *SoakResult, err error) {
	d, w, err := start(ctx, cfg, launch, true)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, d.Close()) }()
	orch := NewOrchestrator(cfg.Schedule, d)
	res := &SoakResult{}
	// attempt performs a tick's operation; a typed refusal is counted, any
	// other failure ends the soak.
	attempt := func(op Op) error {
		err := w.do(ctx, op)
		if err == nil {
			return nil
		}
		if !typedRefusal(err) {
			return fmt.Errorf("%s at tick %d failed with something other than a typed refusal: %w", op.Kind, op.Tick, err)
		}
		res.Refused++
		cfg.Logf("tick %d: %s refused: %v", op.Tick, op.Kind, err)
		return nil
	}
	for tick := 0; tick < cfg.Ticks; tick++ {
		ev, err := orch.Step(tick)
		if err != nil {
			return nil, err
		}
		if ev != nil {
			cfg.Logf("tick %d: %s shard %d (window %d)", ev.Tick, ev.Action, ev.Shard, ev.Ticks)
		}
		if err := attempt(w.next(tick)); err != nil {
			return nil, err
		}
		if (tick+1)%dayEvery == 0 {
			if err := attempt(w.nextDay(tick)); err != nil {
				return nil, err
			}
		}
		d.Tick(ctx)
	}
	if err := orch.Quiesce(); err != nil {
		return nil, err
	}
	res.Events = orch.Events()

	// Heal: every shard must come back before the verification day.
	coord := d.Coordinator()
	unhealthy := func(s coordinator.State) bool { return s != coordinator.Healthy }
	for waited := 0; slices.ContainsFunc(coord.States(), unhealthy); waited++ {
		if waited == healTicks {
			return nil, fmt.Errorf("fleet did not heal within %d ticks of the last disturbance (states %v)", healTicks, coord.States())
		}
		d.Tick(ctx)
	}
	cfg.Logf("fleet healthy after %d disturbances", len(res.Events))

	// The verification day must commit. Delivery is one-shot per ad, so if a
	// mid-chaos day consumed every active ad, create until one is active. The
	// fleet is whole again, so any refusal is a failure.
	for tick := cfg.Ticks; len(w.undelivered) == 0; tick++ {
		if err := w.do(ctx, w.next(tick)); err != nil {
			return nil, fmt.Errorf("operation at tick %d on the healed fleet: %w", tick, err)
		}
	}
	if err := w.do(ctx, w.nextDay(cfg.Ticks)); err != nil {
		return nil, fmt.Errorf("verification day on the healed fleet: %w", err)
	}

	// No acknowledged write lost, none applied twice.
	inv, err := coord.Inventory(ctx)
	if err != nil {
		return nil, fmt.Errorf("healed-fleet inventory: %w", err)
	}
	if inv.Ads != len(w.ads) || inv.Audiences != 1 || !slices.Equal(inv.CampaignNames, w.campaigns) {
		return nil, fmt.Errorf("healed fleet holds %d ads, %d audiences and campaigns %v; acknowledged were %d ads, 1 audience and campaigns %v, each once",
			inv.Ads, inv.Audiences, inv.CampaignNames, len(w.ads), w.campaigns)
	}
	res.Ops = w.oplog
	res.Digest, err = w.digest(ctx)
	return res, err
}

func soakReplay(ctx context.Context, cfg SoakConfig, launch func(bool) (Deployment, error), ops []Op) (_ string, err error) {
	d, w, err := start(ctx, cfg, launch, false)
	if err != nil {
		return "", err
	}
	defer func() { err = errors.Join(err, d.Close()) }()
	for i, want := range ops {
		op := want
		op.Status = ""
		if op.Kind != "appeal" {
			op.ID = ""
		}
		if err := w.do(ctx, op); err != nil {
			return "", fmt.Errorf("replay of op %d (%s, tick %d): %w", i, op.Kind, op.Tick, err)
		}
		if got := w.oplog[len(w.oplog)-1]; got.ID != want.ID || got.Status != want.Status {
			return "", fmt.Errorf("replay of op %d (%s, tick %d) gave %s %s; the disturbed fleet acknowledged %s %s: allocation or review histories diverged",
				i, op.Kind, op.Tick, got.ID, got.Status, want.ID, want.Status)
		}
	}
	return w.digest(ctx)
}

// typedRefusal reports whether a failed operation was refused the way the
// fleet promises to refuse: the router's 503 for a degraded fleet or 502 for
// a shard it could not reach. A divergence is reported as a 502 too, and is
// never an acceptable answer.
func typedRefusal(err error) bool {
	var api *marketing.APIError
	if !errors.As(err, &api) || strings.Contains(api.Message, "diverged") {
		return false
	}
	return api.StatusCode == http.StatusServiceUnavailable || api.StatusCode == http.StatusBadGateway
}

// workload issues the operation sequence. What it does at a tick is a
// function of the tick and of what was acknowledged so far, so the
// undisturbed fleet can replay exactly the acknowledged subset.
type workload struct {
	client *marketing.Client
	hashes []string

	audienceID, campaignID string
	ads                    []string          // acknowledged ads, in order
	status                 map[string]string // their last acknowledged status
	campaigns              []string          // acknowledged campaign names, sorted
	// rejected holds ads review refused and nobody has appealed yet; each is
	// appealed once.
	rejected []string
	// undelivered holds active ads no committed day has consumed: delivery is
	// one-shot (a delivered ad is COMPLETED, its insights frozen), so each day
	// runs over the ads that became active since the last one.
	undelivered []string
	days        int
	oplog       []Op
}

// setup creates the account both fleets start from: one audience, one
// campaign, two ads. Its operations are not in the log — each fleet runs
// setup itself.
func (w *workload) setup(ctx context.Context) error {
	ca, err := w.client.CreateAudience(ctx, "soak-aud", w.hashes)
	if err != nil {
		return err
	}
	if ca.MatchedSize == 0 {
		return fmt.Errorf("audience matched no users")
	}
	w.audienceID = ca.ID
	for _, op := range []Op{{Kind: "campaign", Tick: -3}, {Kind: "ad", Tick: -2}, {Kind: "ad", Tick: -1}} {
		if err := w.do(ctx, op); err != nil {
			return err
		}
	}
	w.oplog = nil
	return nil
}

// next decides the operation of a tick: an appeal while a rejected ad waits,
// a campaign every tenth tick, an ad otherwise.
func (w *workload) next(tick int) Op {
	switch {
	case len(w.rejected) > 0:
		return Op{Kind: "appeal", Tick: tick, ID: w.rejected[0]}
	case tick%10 == 9:
		return Op{Kind: "campaign", Tick: tick}
	}
	return Op{Kind: "ad", Tick: tick}
}

// nextDay is the next delivery day, over every undelivered ad.
func (w *workload) nextDay(tick int) Op {
	return Op{Kind: "day", Tick: tick, Seed: daySeedBase + int64(w.days), AdIDs: slices.Clone(w.undelivered)}
}

// do performs one operation and, once it is acknowledged, records it.
func (w *workload) do(ctx context.Context, op Op) error {
	var reviewed *marketing.AdResponse
	switch op.Kind {
	case "campaign":
		name := fmt.Sprintf("soak-cmp-%03d", op.Tick+3)
		cmp, err := w.client.CreateCampaign(ctx, marketing.CreateCampaignRequest{Name: name, Objective: "TRAFFIC"})
		if err != nil {
			return err
		}
		if w.campaignID == "" {
			w.campaignID = cmp.ID
		}
		w.campaigns = append(w.campaigns, name)
		slices.Sort(w.campaigns)
		op.ID = cmp.ID
	case "ad":
		n := op.Tick + 2 // setup's ads are ticks -2 and -1
		img := image.FromProfile(demo.Profile{
			Gender: []demo.Gender{demo.GenderFemale, demo.GenderMale}[n%2],
			Race:   []demo.Race{demo.RaceBlack, demo.RaceWhite}[(n/2)%2],
			Age:    demo.ImpliedAdult,
		})
		ad, err := w.client.CreateAd(ctx, marketing.CreateAdRequest{
			CampaignID: w.campaignID,
			Creative: marketing.WireCreative{
				Image:    marketing.WireImageFrom(img),
				Headline: fmt.Sprintf("soak-ad-%03d", n),
				LinkURL:  "https://example.test/offer",
			},
			Targeting:        marketing.WireTargeting{CustomAudienceIDs: []string{w.audienceID}},
			DailyBudgetCents: 150 + 25*(n%6),
		})
		if err != nil {
			return err
		}
		w.ads = append(w.ads, ad.ID)
		if ad.Status == "REJECTED" {
			w.rejected = append(w.rejected, ad.ID)
		}
		reviewed = ad
	case "appeal":
		// One appeal an ad, whatever comes of it: a refused appeal may have
		// been applied, and a second one would then be a client error.
		w.rejected = slices.DeleteFunc(w.rejected, func(id string) bool { return id == op.ID })
		ad, err := w.client.AppealAd(ctx, op.ID)
		if err != nil {
			return err
		}
		reviewed = ad
	case "day":
		if len(op.AdIDs) == 0 {
			return nil // nothing active to deliver; not an operation
		}
		if err := w.client.Deliver(ctx, op.AdIDs, op.Seed); err != nil {
			return err
		}
		w.days++
		for _, id := range op.AdIDs {
			w.status[id] = "COMPLETED"
		}
		w.undelivered = slices.DeleteFunc(w.undelivered, func(id string) bool { return slices.Contains(op.AdIDs, id) })
	default:
		return fmt.Errorf("unknown operation %q", op.Kind)
	}
	if reviewed != nil {
		op.ID, op.Status = reviewed.ID, reviewed.Status
		w.status[op.ID] = op.Status
		if op.Status == "ACTIVE" {
			w.undelivered = append(w.undelivered, op.ID)
		}
	}
	w.oplog = append(w.oplog, op)
	return nil
}

// digest hashes what an advertiser can read back: every acknowledged ad's
// status — which must be the one last acknowledged — and, for each delivered
// ad, the full wire-level report (plain insights plus the age×gender×region
// breakdown). Ad IDs are normalized to their index, as the coordinator's
// end-to-end tests do.
func (w *workload) digest(ctx context.Context) (string, error) {
	type adReport struct {
		Status string                      `json:"status"`
		Full   *marketing.InsightsResponse `json:"full,omitempty"`
		Cells  *marketing.InsightsResponse `json:"cells,omitempty"`
	}
	reports := make([]adReport, len(w.ads))
	for i, id := range w.ads {
		ad, err := w.client.GetAd(ctx, id)
		if err != nil {
			return "", fmt.Errorf("acknowledged ad %s: %w", id, err)
		}
		if ad.Status != w.status[id] {
			return "", fmt.Errorf("ad %s reads %s, last acknowledged as %s", id, ad.Status, w.status[id])
		}
		reports[i].Status = ad.Status
		if ad.Status != "COMPLETED" {
			continue
		}
		full, err := w.client.Insights(ctx, id)
		if err != nil {
			return "", err
		}
		cells, err := w.client.InsightsBreakdown(ctx, id, "age", "gender", "region")
		if err != nil {
			return "", err
		}
		full.AdID = fmt.Sprintf("ad#%d", i)
		cells.AdID = full.AdID
		reports[i].Full, reports[i].Cells = full, cells
	}
	b, err := json.Marshal(reports)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
