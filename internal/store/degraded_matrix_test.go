package store

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"strconv"
	"testing"
	"time"

	"github.com/fusionstore/fusion/internal/erasure"
	"github.com/fusionstore/fusion/internal/faultnet"
	"github.com/fusionstore/fusion/internal/simnet"
)

// faultSeed returns the fault-injection seed: FUSION_FAULT_SEED when set,
// else a fixed default. Every fault test logs it so a failure can be
// reproduced by re-running with the printed value.
func faultSeed(t testing.TB) int64 {
	t.Helper()
	seed := int64(1)
	if v := os.Getenv("FUSION_FAULT_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("FUSION_FAULT_SEED=%q: %v", v, err)
		}
		seed = n
	}
	t.Logf("fault seed = %d (re-run with FUSION_FAULT_SEED=%d to reproduce)", seed, seed)
	return seed
}

// forEachErasurePattern calls fn with every subset of {0..n-1} of size 1..r.
func forEachErasurePattern(n, r int, fn func(pattern []int)) {
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		if len(cur) > 0 {
			fn(cur)
		}
		if len(cur) == r {
			return
		}
		for i := start; i < n; i++ {
			rec(i+1, append(cur, i))
		}
	}
	rec(0, nil)
}

// newFaultStore builds a store over a faultnet-wrapped simnet cluster.
func newFaultStore(t testing.TB, nodes int, seed int64, opts Options) (*Store, *faultnet.Injector) {
	t.Helper()
	cfg := simnet.DefaultConfig()
	cfg.Nodes = nodes
	inj := faultnet.New(simnet.New(cfg), seed)
	// Tight backoff keeps the exhaustive matrix fast while still walking
	// the full retry path for injected transient errors.
	opts.Retry.MaxAttempts = 3
	opts.Retry.BaseBackoff = 50 * time.Microsecond
	opts.Retry.MaxBackoff = 500 * time.Microsecond
	s, err := New(inj, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, inj
}

// TestDegradedReadMatrix is the exhaustive erasure-pattern matrix: for
// RS(9,6) and RS(14,10), every pattern of 1..n−k downed nodes is injected
// through faultnet, and Get and Query results must be bit-identical to the
// healthy cluster's.
func TestDegradedReadMatrix(t *testing.T) {
	const query = "SELECT qty, price FROM obj WHERE flag = 'A' AND qty > 10"
	for _, tc := range []struct {
		name   string
		params erasure.Params
	}{
		{"RS96", erasure.RS96},
		{"RS1410", erasure.RS1410},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seed := faultSeed(t)
			opts := fusionTestOptions()
			opts.Params = tc.params
			s, inj := newFaultStore(t, tc.params.N, seed, opts)

			data, _, _ := makeObject(t, 2, 250, seed)
			if _, err := s.Put("obj", data); err != nil {
				t.Fatal(err)
			}
			healthy, err := s.Get("obj", 0, 0)
			if err != nil || !bytes.Equal(healthy, data) {
				t.Fatalf("healthy Get: %v", err)
			}
			healthyRes, err := s.Query(query)
			if err != nil {
				t.Fatalf("healthy Query: %v", err)
			}

			n, r := tc.params.N, tc.params.N-tc.params.K
			patterns := 0
			forEachErasurePattern(n, r, func(pattern []int) {
				patterns++
				for _, node := range pattern {
					inj.SetDown(node, true)
				}
				got, err := s.Get("obj", 0, 0)
				if err != nil {
					t.Fatalf("seed %d pattern %v: degraded Get: %v", seed, pattern, err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("seed %d pattern %v: degraded Get bytes differ", seed, pattern)
				}
				res, err := s.Query(query)
				if err != nil {
					t.Fatalf("seed %d pattern %v: degraded Query: %v", seed, pattern, err)
				}
				if res.Rows != healthyRes.Rows ||
					!reflect.DeepEqual(res.Columns, healthyRes.Columns) ||
					!reflect.DeepEqual(res.Data, healthyRes.Data) ||
					!reflect.DeepEqual(res.AggValues, healthyRes.AggValues) {
					t.Fatalf("seed %d pattern %v: degraded Query result differs from healthy", seed, pattern)
				}
				inj.ReviveAll()
			})
			want := patternCount(n, r)
			if patterns != want {
				t.Fatalf("visited %d patterns, want %d", patterns, want)
			}
			t.Logf("%s: %d erasure patterns verified", tc.name, patterns)
		})
	}
}

// patternCount is sum_{i=1..r} C(n, i).
func patternCount(n, r int) int {
	total := 0
	for i := 1; i <= r; i++ {
		c := 1
		for j := 0; j < i; j++ {
			c = c * (n - j) / (j + 1)
		}
		total += c
	}
	return total
}

// TestDegradedMatrixBeyondTolerance verifies the flip side of the matrix:
// every pattern of exactly n−k+1 downed data-bearing nodes makes Get fail
// with the ErrTooManyFailures sentinel rather than wrong bytes.
func TestDegradedMatrixBeyondTolerance(t *testing.T) {
	seed := faultSeed(t)
	opts := fusionTestOptions()
	s, inj := newFaultStore(t, 9, seed, opts)
	data, _, _ := makeObject(t, 2, 200, seed)
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	p := s.Options().Params
	over := p.N - p.K + 1
	checked := 0
	forEachErasurePattern(p.N, over, func(pattern []int) {
		if len(pattern) != over {
			return
		}
		checked++
		for _, node := range pattern {
			inj.SetDown(node, true)
		}
		got, err := s.Get("obj", 0, 0)
		if err == nil {
			// n−k+1 downed *nodes* can still leave every data bin of every
			// stripe readable only if all the downed nodes held parity; with
			// random placement over exactly n nodes that cannot happen for
			// over > n−k, so a success here must still be correct bytes.
			if !bytes.Equal(got, data) {
				t.Fatalf("seed %d pattern %v: Get returned wrong bytes without error", seed, pattern)
			}
		} else if !errors.Is(err, ErrTooManyFailures) {
			t.Fatalf("seed %d pattern %v: want ErrTooManyFailures, got %v", seed, pattern, err)
		}
		inj.ReviveAll()
	})
	if checked == 0 {
		t.Fatal("no over-tolerance patterns visited")
	}
	t.Logf("%d over-tolerance patterns verified", checked)
}

// TestDegradedReadGathersKSurvivors pins what a rebuild reads: a cold ranged
// Get of a block on a down node reads the k lowest-numbered other bins of its
// stripe, one GetBlock each; a survivor that also fails is replaced by the next
// untried bin, one more GetBlock; and past n−k failures the read fails with
// ErrTooManyFailures.
func TestDegradedReadGathersKSurvivors(t *testing.T) {
	data, _, _ := makeObject(t, 3, 400, 1)
	p := fusionTestOptions().Params
	for _, tc := range []struct {
		name      string
		alsoDown  int // survivors taken down beside the lost block's node
		wantGets  int
		wantError bool
	}{
		{"one node down", 0, p.K, false},
		{"one survivor fails too", 1, p.K + 1, false},
		{"past n-k failures", p.N - p.K, p.N - 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl := simnet.New(simnet.DefaultConfig())
			tap := &tapClient{inner: cl}
			s, err := New(tap, fusionTestOptions())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Put("obj", data); err != nil {
				t.Fatal(err)
			}
			meta, err := s.Meta("obj")
			if err != nil {
				t.Fatal(err)
			}
			idx := meta.ChunkItemIndex(0, 1)
			loc := meta.ItemLocs[idx]
			st := meta.Stripes[loc.Stripe]
			cl.SetDown(st.Nodes[loc.Bin], true)
			for j, down := 0, 0; down < tc.alsoDown; j++ {
				if j != loc.Bin {
					cl.SetDown(st.Nodes[j], true)
					down++
				}
			}
			tap.take()
			got, err := s.Get("obj", meta.Items[idx].Offset, 5)
			_, gets := tap.take()
			survivorGets := 0
			for j, id := range st.BlockIDs {
				if j != loc.Bin {
					survivorGets += gets[id]
				}
			}
			if survivorGets != tc.wantGets {
				t.Errorf("%d survivor GetBlocks, want %d", survivorGets, tc.wantGets)
			}
			if tc.wantError {
				if !errors.Is(err, ErrTooManyFailures) {
					t.Fatalf("Get past n-k failures = %v, want ErrTooManyFailures", err)
				}
				return
			}
			off := meta.Items[idx].Offset
			if err != nil || !bytes.Equal(got, data[off:off+5]) {
				t.Fatalf("degraded Get = %v; bytes right: %v", err, bytes.Equal(got, data[off:off+5]))
			}
		})
	}
}
