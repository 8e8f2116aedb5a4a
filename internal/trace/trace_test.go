package trace

import (
	"context"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeAndCounters(t *testing.T) {
	ctx, root := Start(context.Background(), "store.Get")
	if FromContext(ctx) != root {
		t.Fatal("FromContext did not return the installed span")
	}
	meta := root.Child("meta")
	meta.End()
	blk := root.Child("block")
	blk.Count(BytesRequested, 100)
	blk.Count(BytesFromNodes, 600)
	blk.Count(RPCs, 2)
	blk.Count(Retries, 1)
	blk.End()
	root.End()

	if got := root.Total(BytesFromNodes); got != 600 {
		t.Fatalf("Total(BytesFromNodes) = %d, want 600", got)
	}
	if amp := root.ReadAmplification(); amp != 6.0 {
		t.Fatalf("read amplification = %v, want 6", amp)
	}
	snap := root.Snapshot()
	if snap.Name != "store.Get" || len(snap.Children) != 2 {
		t.Fatalf("snapshot shape wrong: %+v", snap)
	}
	if snap.ReadAmp != 6.0 {
		t.Fatalf("snapshot read amp = %v", snap.ReadAmp)
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot not JSON-encodable: %v", err)
	}
	tree := root.Tree()
	for _, want := range []string{"store.Get", "meta", "block", "retries=1", "read amplification: 6.00x"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("tree rendering missing %q:\n%s", want, tree)
		}
	}
}

func TestNilSpanIsSafe(t *testing.T) {
	var s *Span
	c := s.Child("x")
	if c != nil {
		t.Fatal("nil span's child must be nil")
	}
	c.End()
	c.Count(BytesRequested, 1)
	if s.Duration() != 0 || s.Total(RPCs) != 0 || s.ReadAmplification() != 0 {
		t.Fatal("nil span must read as zero")
	}
	if s.Tree() != "" {
		t.Fatal("nil span must render empty")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("untraced context must yield a nil span")
	}
	if FromContext(nil) != nil { //nolint:staticcheck // nil ctx is part of the contract
		t.Fatal("nil context must yield a nil span")
	}
}

func TestSpanConcurrentChildren(t *testing.T) {
	root := New("root")
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := root.Child("c")
			c.Count(RPCs, 1)
			c.End()
		}()
	}
	wg.Wait()
	root.End()
	if got := root.Total(RPCs); got != 64 {
		t.Fatalf("Total(RPCs) = %d, want 64", got)
	}
}

func TestChildCapDrops(t *testing.T) {
	root := New("root")
	for i := 0; i < maxChildren+10; i++ {
		root.Child("c").End()
	}
	root.End()
	snap := root.Snapshot()
	if len(snap.Children) != maxChildren {
		t.Fatalf("children = %d, want cap %d", len(snap.Children), maxChildren)
	}
	if snap.Dropped != 10 {
		t.Fatalf("dropped = %d, want 10", snap.Dropped)
	}
}

func TestRing(t *testing.T) {
	r := NewRing(2)
	for i := 0; i < 3; i++ {
		s := New("op" + strconv.Itoa(i))
		s.End()
		r.Add(s)
	}
	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].Name != "op1" || snap[1].Name != "op2" {
		t.Fatalf("ring snapshot wrong: %+v", snap)
	}
	if r.Seen() != 3 {
		t.Fatalf("seen = %d, want 3", r.Seen())
	}
	var nilRing *Ring
	nilRing.Add(New("x"))
	if nilRing.Snapshot() != nil || nilRing.Seen() != 0 {
		t.Fatal("nil ring must be inert")
	}
}

// BenchmarkTraceDisabled measures the full per-RPC tracing sequence on the
// untraced path — FromContext on a span-free context, a Child, two Counts
// and an End on the resulting nil span. This is exactly what every hot-path
// call pays when no caller installed a trace; the CI gate (see
// TestTraceDisabledOverheadGate) keeps it under 5 ns/op.
func BenchmarkTraceDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := FromContext(ctx)
		c := sp.Child("block")
		c.Count(BytesRequested, 1)
		c.Count(BytesFromNodes, 1)
		c.End()
	}
}

// BenchmarkTraceEnabled is the same sequence with a live root span, for
// comparing enabled-path cost (not gated).
func BenchmarkTraceEnabled(b *testing.B) {
	ctx, root := Start(context.Background(), "bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := FromContext(ctx)
		c := sp.Child("block")
		c.Count(BytesRequested, 1)
		c.Count(BytesFromNodes, 1)
		c.End()
	}
	b.StopTimer()
	root.End()
}

// TestTraceDisabledOverheadGate is the CI benchmark gate: it runs
// BenchmarkTraceDisabled via testing.Benchmark and fails when the disabled
// path costs more than 5 ns/op. It only runs when FUSION_TRACE_GATE=1 so
// ordinary `go test ./...` runs stay timing-independent.
func TestTraceDisabledOverheadGate(t *testing.T) {
	if os.Getenv("FUSION_TRACE_GATE") == "" {
		t.Skip("set FUSION_TRACE_GATE=1 to run the overhead gate")
	}
	const limit = 5 * time.Nanosecond
	res := testing.Benchmark(BenchmarkTraceDisabled)
	perOp := time.Duration(res.NsPerOp())
	t.Logf("disabled tracing path: %v/op over %d iterations", perOp, res.N)
	if perOp > limit {
		t.Fatalf("disabled tracing path costs %v/op, budget %v", perOp, limit)
	}
	if allocs := res.AllocsPerOp(); allocs != 0 {
		t.Fatalf("disabled tracing path allocates %d objects/op, want 0", allocs)
	}
}
