// Package trace is Fusion's zero-dependency request-scoped tracing layer:
// a span tree per request recording per-stage wall times plus the byte and
// event counters the paper's evaluation is built on (§6) — bytes requested
// vs bytes read from storage nodes (read amplification), retries, degraded
// reads and checksum failures.
//
// Tracing is strictly optional. Every method is safe on a nil *Span and
// compiles down to a single nil check, so the hot paths thread a span
// unconditionally and pay (nearly) nothing when no caller installed one —
// BenchmarkTraceDisabled pins the disabled-path cost below 5 ns/op. A
// request opts in by putting a root span into its context:
//
//	ctx, root := trace.Start(ctx, "GET /objects/taxi")
//	data, err := store.GetContext(ctx, "taxi", 0, 0)
//	root.End()
//	fmt.Println(root.Tree()) // per-stage timings + read amplification
package trace

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"
)

// Counter enumerates the per-span event/byte counters.
type Counter uint8

const (
	// BytesRequested is the logical payload the caller asked for (a Get's
	// range length, a query's result wire size).
	BytesRequested Counter = iota
	// BytesFromNodes is the payload bytes actually received from storage
	// nodes, including reconstruction overreads. The ratio
	// BytesFromNodes/BytesRequested is the read amplification of Fig. 4/§6.
	BytesFromNodes
	// RPCs counts coordinator→node calls (attempts, including retries).
	RPCs
	// Retries counts retried attempts beyond each call's first.
	Retries
	// DegradedReads counts block reads served via RS reconstruction.
	DegradedReads
	// ChecksumFailures counts blocks whose bytes failed CRC verification
	// (at rest on the node, in flight, or against the stripe metadata).
	ChecksumFailures
	// CacheHits counts block/chunk reads served from the coordinator
	// cache. Hits bypass the RPC layer entirely, so BytesFromNodes stays
	// untouched and read amplification reflects true node traffic.
	CacheHits
	// RoundTrips counts data-plane network round trips to storage nodes. A
	// scatter-gather batch of many sub-ops to one node is one round trip —
	// the number the batching layer exists to minimize — whereas RPCs counts
	// every logical operation regardless of framing.
	RoundTrips
	// GroupPartials counts per-group partial aggregate states received from
	// nodes during GROUP BY pushdown — the wire cost the stats-driven
	// planner weighed against shipping the raw chunks.
	GroupPartials
	// GroupSpills counts row groups whose grouped pushdown was abandoned
	// (node-side cardinality cap exceeded, or the planner predicted the
	// partial states would outweigh the chunks) and fell back to
	// coordinator-side grouping.
	GroupSpills
	numCounters
)

var counterNames = [numCounters]string{
	"bytes_requested", "bytes_from_nodes", "rpcs", "retries",
	"degraded_reads", "checksum_failures", "cache_hits", "round_trips",
	"group_partials", "group_spills",
}

func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return fmt.Sprintf("counter(%d)", uint8(c))
}

// maxChildren bounds a span's fan-out so a huge Get (thousands of stripes)
// cannot balloon a trace; spans beyond the cap are dropped and counted.
const maxChildren = 256

// Span is one timed stage of a request. Spans form a tree; all methods are
// safe for concurrent use and are no-ops on a nil receiver.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	end      time.Time
	children []*Span
	dropped  int
	counters [numCounters]uint64
}

// New starts a root span. Callers that want context propagation should
// prefer Start.
func New(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// Child starts a sub-span. On a nil receiver it returns nil, so an untraced
// request's whole span tree stays nil end to end. The nil fast path must
// stay inlinable (the <5 ns/op disabled-overhead budget), hence the
// outlined slow path.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.child(name)
}

func (s *Span) child(name string) *Span {
	c := &Span{name: name, start: time.Now()}
	s.mu.Lock()
	if len(s.children) < maxChildren {
		s.children = append(s.children, c)
	} else {
		s.dropped++
	}
	s.mu.Unlock()
	return c
}

// End marks the span finished. Ending twice keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.endSlow()
}

func (s *Span) endSlow() {
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// Count adds delta to one of the span's counters.
func (s *Span) Count(c Counter, delta uint64) {
	if s == nil {
		return
	}
	s.count(c, delta)
}

func (s *Span) count(c Counter, delta uint64) {
	if c >= numCounters {
		return
	}
	s.mu.Lock()
	s.counters[c] += delta
	s.mu.Unlock()
}

// Duration returns the span's wall time; an unfinished span reads as
// elapsed-so-far.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	end := s.end
	s.mu.Unlock()
	if end.IsZero() {
		return time.Since(s.start)
	}
	return end.Sub(s.start)
}

// Counters returns a snapshot of the span's own (non-recursive) counters.
func (s *Span) Counters() map[string]uint64 {
	out := make(map[string]uint64)
	if s == nil {
		return out
	}
	s.mu.Lock()
	for i, v := range s.counters {
		if v != 0 {
			out[Counter(i).String()] = v
		}
	}
	s.mu.Unlock()
	return out
}

// Total sums one counter over the span's whole subtree.
func (s *Span) Total(c Counter) uint64 {
	if s == nil || c >= numCounters {
		return 0
	}
	s.mu.Lock()
	sum := s.counters[c]
	kids := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, k := range kids {
		sum += k.Total(c)
	}
	return sum
}

// ReadAmplification returns the subtree's bytes-from-nodes over
// bytes-requested ratio — the §6 read-amplification metric. It returns 0
// when nothing was requested.
func (s *Span) ReadAmplification() float64 {
	req := s.Total(BytesRequested)
	if req == 0 {
		return 0
	}
	return float64(s.Total(BytesFromNodes)) / float64(req)
}

// SpanJSON is a span subtree in /debug/fusionz's wire shape.
type SpanJSON struct {
	Name       string            `json:"name"`
	DurationNS int64             `json:"duration_ns"`
	Counters   map[string]uint64 `json:"counters,omitempty"`
	ReadAmp    float64           `json:"read_amplification,omitempty"`
	Dropped    int               `json:"dropped_children,omitempty"`
	Children   []SpanJSON        `json:"children,omitempty"`
}

// Snapshot renders the span subtree for JSON encoding. Only the root
// carries the read-amplification ratio (it is a subtree aggregate).
func (s *Span) Snapshot() SpanJSON {
	return s.snapshot(true)
}

func (s *Span) snapshot(root bool) SpanJSON {
	if s == nil {
		return SpanJSON{}
	}
	s.mu.Lock()
	kids := append([]*Span(nil), s.children...)
	dropped := s.dropped
	s.mu.Unlock()
	out := SpanJSON{
		Name:       s.name,
		DurationNS: s.Duration().Nanoseconds(),
		Counters:   s.Counters(),
		Dropped:    dropped,
	}
	if root {
		out.ReadAmp = s.ReadAmplification()
	}
	for _, k := range kids {
		out.Children = append(out.Children, k.snapshot(false))
	}
	return out
}

// Tree renders the span tree as indented text, for CLI/debug output.
func (s *Span) Tree() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	s.tree(&b, 0)
	if amp := s.ReadAmplification(); amp > 0 {
		fmt.Fprintf(&b, "read amplification: %.2fx\n", amp)
	}
	return b.String()
}

func (s *Span) tree(b *strings.Builder, depth int) {
	s.mu.Lock()
	kids := append([]*Span(nil), s.children...)
	dropped := s.dropped
	s.mu.Unlock()
	fmt.Fprintf(b, "%s%s  %v", strings.Repeat("  ", depth), s.name,
		s.Duration().Round(time.Microsecond))
	counters := s.Counters()
	for i := Counter(0); i < numCounters; i++ {
		if v, ok := counters[i.String()]; ok {
			fmt.Fprintf(b, " %s=%d", i.String(), v)
		}
	}
	if dropped > 0 {
		fmt.Fprintf(b, " (+%d dropped)", dropped)
	}
	b.WriteByte('\n')
	for _, k := range kids {
		k.tree(b, depth+1)
	}
}

type ctxKey struct{}

// NewContext returns a context carrying the span.
func NewContext(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the context's span, or nil when the request is
// untraced (including a nil context). Callers never need a nil check: every
// Span method is nil-safe.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// Start begins a root span and installs it in the context.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	s := New(name)
	return NewContext(ctx, s), s
}

// Ring keeps the most recent finished traces for /debug/fusionz. The zero
// number of slots is invalid; use NewRing. All methods are nil-safe.
type Ring struct {
	mu   sync.Mutex
	buf  []*Span
	next int
	seen uint64
}

// NewRing returns a ring holding the last n traces.
func NewRing(n int) *Ring {
	if n <= 0 {
		n = 1
	}
	return &Ring{buf: make([]*Span, n)}
}

// Add records a finished trace (nil spans and nil rings are ignored).
func (r *Ring) Add(s *Span) {
	if r == nil || s == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = s
	r.next = (r.next + 1) % len(r.buf)
	r.seen++
	r.mu.Unlock()
}

// Seen returns how many traces were ever added.
func (r *Ring) Seen() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seen
}

// Snapshot returns the retained traces, oldest first.
func (r *Ring) Snapshot() []SpanJSON {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	spans := make([]*Span, 0, len(r.buf))
	for i := 0; i < len(r.buf); i++ {
		if s := r.buf[(r.next+i)%len(r.buf)]; s != nil {
			spans = append(spans, s)
		}
	}
	r.mu.Unlock()
	out := make([]SpanJSON, len(spans))
	for i, s := range spans {
		out[i] = s.Snapshot()
	}
	return out
}

// Trees renders the retained traces as indented text, oldest first (the
// /debug/fusionz?format=text trace section).
func (r *Ring) Trees() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	spans := make([]*Span, 0, len(r.buf))
	for i := 0; i < len(r.buf); i++ {
		if s := r.buf[(r.next+i)%len(r.buf)]; s != nil {
			spans = append(spans, s)
		}
	}
	r.mu.Unlock()
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Tree()
	}
	return out
}
