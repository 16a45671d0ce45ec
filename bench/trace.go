package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one unit of work
// (a scenario, an audit repetition, a day) share a Trace id; Parent is the id
// of the span that caused this one, 0 for the root.
type span struct {
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps completed spans in memory until the run ends. Every span is
// recorded by the benchmark's own code around a call into the program; the
// program itself is not instrumented.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a started span; end completes and records it.
type openSpan struct {
	t *tracer
	s span
}

// begin starts a span. A nil tracer yields a nil openSpan whose end is a
// no-op, so call sites need no tracing-on branch.
func (t *tracer) begin(trace, parent int64, name string) *openSpan {
	if t == nil {
		return nil
	}
	return &openSpan{t: t, s: span{
		Trace: trace, ID: t.nextID.Add(1), Parent: parent, Name: name,
		Start: int64(time.Since(t.epoch)),
	}}
}

func (o *openSpan) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.epoch))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// link is the position in a trace a new span hangs from.
type link struct {
	trace  int64
	parent int64
}

type linkKey struct{}

// withLink returns a context carrying the trace position; fromLink reads it
// back. The timing transport reads it from the outgoing request's context,
// the timing persister from the context the handler passes to Barrier.
func withLink(ctx context.Context, l link) context.Context {
	return context.WithValue(ctx, linkKey{}, l)
}

func fromLink(ctx context.Context) (link, bool) {
	l, ok := ctx.Value(linkKey{}).(link)
	return l, ok
}

// linkHeader carries the trace position across an HTTP hop.
const linkHeader = "X-Bench-Span"

func (l link) header() string { return fmt.Sprintf("%d:%d", l.trace, l.parent) }

func parseLink(v string) (link, bool) {
	a, b, ok := strings.Cut(v, ":")
	if !ok {
		return link{}, false
	}
	trace, err1 := strconv.ParseInt(a, 10, 64)
	parent, err2 := strconv.ParseInt(b, 10, 64)
	if err1 != nil || err2 != nil {
		return link{}, false
	}
	return link{trace: trace, parent: parent}, true
}

// write stores the spans as one JSON object per line.
func (t *tracer) write(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// byTrace groups spans by trace id.
func byTrace(spans []span) map[int64][]span {
	out := map[int64][]span{}
	for _, s := range spans {
		out[s.Trace] = append(out[s.Trace], s)
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped to
// the parent's interval: overlapping children are counted once. A span's self
// time is its duration minus what its children cover.
func covered(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = parent.Start
	for _, x := range iv {
		if x[1] <= end {
			continue
		}
		total += x[1] - max(x[0], end)
		end = x[1]
	}
	return total
}

// blockingPath attributes the root span's wall time to span names along the
// steps that blocked it: a span contributes its self time, and where sibling
// spans overlap (parallel shard RPCs) only the one that ended last — the one
// the parent waited for — is descended into. Time a group of overlapping
// siblings covers before its last member started is booked as "overlap".
// The attributed times sum to the root's duration when every span nests in
// its parent; orphans reports spans whose parent is missing from the trace.
func blockingPath(spans []span) (byName map[string]int64, root span, orphans int) {
	byName = map[string]int64{}
	ids := map[int64]bool{}
	kids := map[int64][]span{}
	for _, s := range spans {
		ids[s.ID] = true
	}
	found := false
	for _, s := range spans {
		switch {
		case s.Parent == 0 && !found:
			root, found = s, true
		case s.Parent == 0 || !ids[s.Parent]:
			orphans++
		default:
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	if !found {
		return byName, root, orphans
	}
	var walk func(s span)
	walk = func(s span) {
		cs := kids[s.ID]
		byName[s.Name] += s.dur() - covered(s, cs)
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		for i := 0; i < len(cs); {
			// Grow the group while the next child starts before the group ends.
			j, end, last := i+1, cs[i].End, cs[i]
			for j < len(cs) && cs[j].Start < end {
				if cs[j].End > end {
					end, last = cs[j].End, cs[j]
				}
				j++
			}
			byName["overlap"] += covered(s, cs[i:j]) - covered(s, []span{last})
			walk(last)
			i = j
		}
	}
	walk(root)
	if byName["overlap"] == 0 {
		delete(byName, "overlap")
	}
	return byName, root, orphans
}
