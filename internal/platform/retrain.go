package platform

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"

	"github.com/adaudit/impliedidentity/internal/population"
	"github.com/adaudit/impliedidentity/internal/stats"
)

// servedRow is one logged served impression: who saw which creative and
// whether they clicked. The retraining buffer is what closes the feedback
// loop the paper's discussion warns about ("this optimization for engagement
// has also been leveraged by scammers", §2.2): the next model trains on
// traffic the previous model chose. The user is an int32 beside the flag so
// that a row is 16 B, not 24: a platform buffers up to maxServedLog of them.
type servedRow struct {
	ad      *Ad
	user    int32
	clicked bool
}

// maxServedLog bounds the retraining buffer.
const maxServedLog = 200000

// ServedLogSize reports the retraining buffer size.
func (p *Platform) ServedLogSize() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.served)
}

// Retrain refits the estimated-action-rate model on a fresh background
// engagement log plus every impression the platform itself has served since
// the last (re)training. Served impressions are selection-biased — the
// previous model chose who saw what — which is precisely the feedback-loop
// mechanism experiment E16 measures. Ads created after Retrain use the new
// model; completed ads keep their recorded delivery. A zero cfg.LogRows
// means the platform's own. It is refused while a coordinated delivery
// session is open, whose rows are still to be logged.
func (p *Platform) Retrain(cfg TrainingConfig) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.session != nil {
		return fmt.Errorf("%w: %q, cannot retrain", ErrSessionActive, p.session.name)
	}
	cfg.LogRows = cmp.Or(cfg.LogRows, p.cfg.Training.LogRows)
	base, err := trainLogRows(cfg, p.pop, p.behave, p.vision)
	if err != nil {
		return err
	}
	layout := newFeatureLayout()
	total := base.x.Rows + len(p.served)
	x := stats.NewMatrix(total, layout.dim)
	copy(x.Data, base.x.Data)
	y := make([]float64, total)
	copy(y, base.y)
	for i := range p.served {
		row := &p.served[i]
		layout.featurize(p.pop.View(int(row.user)), &row.ad.perceived, x.Row(base.x.Rows+i))
		if row.clicked {
			y[base.x.Rows+i] = 1
		}
	}
	fit, err := stats.Logit(layout.names(), x, y, stats.LogitOptions{Ridge: 3.0, MaxIter: 60})
	if err != nil {
		return fmt.Errorf("platform: retraining eAR model: %w", err)
	}
	p.ear = &earModel{layout: layout, fit: fit}
	p.served = p.served[:0]
	return nil
}

// errLogRows is an engagement log too short to fit the eAR model on.
var errLogRows = errors.New("platform: LogRows too few to train eAR, need 1000")

func checkLogRows(rows int) error {
	if rows < 1000 {
		return fmt.Errorf("%w: got %d", errLogRows, rows)
	}
	return nil
}

// logRows is a generated background engagement log.
type logRows struct {
	x *stats.Matrix
	y []float64
}

// trainLogRows generates a background engagement log (the shared inner step
// of initial training and retraining).
func trainLogRows(cfg TrainingConfig, pop *population.Population, behave *population.Behavior, vision visionModel) (*logRows, error) {
	if err := checkLogRows(cfg.LogRows); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	layout := newFeatureLayout()
	x := stats.NewMatrix(cfg.LogRows, layout.dim)
	y := make([]float64, cfg.LogRows)
	fillEngagementLog(rng, layout, pop, behave, vision, x, y)
	return &logRows{x: x, y: y}, nil
}
