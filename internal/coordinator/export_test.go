package coordinator

// Seams for the package's tests, which live in coordinator_test: they stand
// fleets up with internal/chaos, which imports this package.

import (
	"context"
	"fmt"

	"github.com/adaudit/impliedidentity/internal/marketing"
)

// DownAfter is the transport-failure streak that scores a shard down.
const DownAfter = downAfter

// MarkDown quarantines a shard, as a diverged mutation answer does.
func (c *Coordinator) MarkDown(shard int) { c.health.markDown(shard) }

// DayStatus probes whether a previous day attempt's commit landed.
func (c *Coordinator) DayStatus(ctx context.Context, adIDs []string, attempt int) (committed bool, pending []int, err error) {
	return c.dayStatus(ctx, adIDs, attempt)
}

// SetMaxBodyBytes lowers a router's request-body limit.
func (rt *Router) SetMaxBodyBytes(n int64) { rt.limits.MaxBodyBytes = n }

// MergeInsights folds raw per-shard insights into the fleet-wide report, as
// the router's insights fan-out does, over anonymous shard connections.
func MergeInsights(parts []*marketing.InsightsResponse) (*marketing.InsightsResponse, error) {
	shards := make([]*shardConn, len(parts))
	for i := range shards {
		shards[i] = &shardConn{index: i, label: fmt.Sprintf("shard-%d", i)}
	}
	return mergeInsights(shards, parts)
}
