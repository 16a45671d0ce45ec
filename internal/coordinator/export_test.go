package coordinator

// Seams for the package's tests, which live in coordinator_test: they stand
// fleets up with internal/chaos, which imports this package.

import "context"

// Outcome is what the shards must answer alike for one mutation.
type Outcome = outcome

// The journal's mutation kinds.
const (
	KindAudience = kindAudience
	KindCampaign = kindCampaign
	KindAppeal   = kindAppeal
)

// Journaled is one journal entry as the tests read it.
type Journaled struct {
	Kind, Path, Key string
	Body            []byte
	Want            Outcome
}

// Journaled lists the journal's entries in order.
func (c *Coordinator) Journaled() []Journaled {
	c.admMu.Lock()
	defer c.admMu.Unlock()
	out := make([]Journaled, len(c.journal.entries))
	for i, e := range c.journal.entries {
		out[i] = Journaled{Kind: e.kind, Path: e.path, Key: e.key, Body: e.body, Want: e.want}
	}
	return out
}

// Mutate relays one replicated request below the router.
func (c *Coordinator) Mutate(ctx context.Context, kind, key, path string, body []byte) ([]byte, error) {
	return c.mutate(ctx, mutation{kind: kind, key: key, path: path, body: body})
}

// DayStatus probes whether a previous day attempt's commit landed.
func (c *Coordinator) DayStatus(ctx context.Context, adIDs []string, attempt int) (committed bool, pending []int, err error) {
	return c.dayStatus(ctx, adIDs, attempt)
}

// SetMaxBodyBytes lowers a router's request-body limit.
func (rt *Router) SetMaxBodyBytes(n int64) { rt.limits.MaxBodyBytes = n }
