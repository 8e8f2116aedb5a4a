package sql

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/fusionstore/fusion/internal/lpq"
)

// This file is the partial-aggregate merge-semantics property suite: the
// merge algebra must agree with a single-pass reference under EVERY merge
// topology (left fold, right-leaning fold, balanced tree, arbitrary
// interleavings), and the ordered reduction the query fan-out uses must be
// bit-for-bit reproducible for floats.

// refState folds all values in one pass — the single-pass reference.
func refState(kind AggKind, col lpq.ColumnData) *AggState {
	s := NewAggState(kind)
	s.AddColumn(col)
	return s
}

// chunkStates splits col at the given cut points and reduces each chunk to
// its own partial state.
func chunkStates(kind AggKind, col lpq.ColumnData, cuts []int) []*AggState {
	var out []*AggState
	prev := 0
	for _, c := range append(cuts, col.Len()) {
		part := NewAggState(kind)
		for i := prev; i < c; i++ {
			part.AddValue(col, i)
		}
		out = append(out, part)
		prev = c
	}
	return out
}

// mergeLeft folds partials left-associatively: ((p0+p1)+p2)+...
func mergeLeft(kind AggKind, parts []*AggState) *AggState {
	acc := NewAggState(kind)
	for _, p := range parts {
		acc.Merge(p)
	}
	return acc
}

// mergeTree merges partials as a balanced binary tree.
func mergeTree(kind AggKind, parts []*AggState) *AggState {
	if len(parts) == 0 {
		return NewAggState(kind)
	}
	level := make([]*AggState, len(parts))
	for i, p := range parts {
		c := *p
		level[i] = &c
	}
	for len(level) > 1 {
		var next []*AggState
		for i := 0; i < len(level); i += 2 {
			if i+1 == len(level) {
				next = append(next, level[i])
				continue
			}
			level[i].Merge(level[i+1])
			next = append(next, level[i])
		}
		level = next
	}
	return level[0]
}

// TestAggStateMergeTopologyProperty: for exactly-representable data (integer
// values, strings), any way of splitting the rows into chunks and any merge
// topology must produce an AggState exactly equal to the single-pass
// reference — the algebra is associative whenever the arithmetic is exact.
func TestAggStateMergeTopologyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	kinds := []AggKind{AggCount, AggSum, AggAvg, AggMin, AggMax}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(64)
		var col lpq.ColumnData
		switch trial % 3 {
		case 0:
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = int64(rng.Intn(2001) - 1000)
			}
			col = lpq.IntColumn(vals)
		case 1:
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = float64(rng.Intn(2001) - 1000) // integer-valued: exact sums
			}
			col = lpq.FloatColumn(vals)
		default:
			vals := make([]string, n)
			for i := range vals {
				vals[i] = string(rune('a' + rng.Intn(26)))
			}
			col = lpq.StringColumn(vals)
		}
		// Random cut points: between 0 and n-1 splits.
		var cuts []int
		for i := 1; i < n; i++ {
			if rng.Intn(4) == 0 {
				cuts = append(cuts, i)
			}
		}
		for _, kind := range kinds {
			want := refState(kind, col)
			parts := chunkStates(kind, col, cuts)
			shuffled := append([]*AggState(nil), parts...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			for name, got := range map[string]*AggState{
				"left-fold":     mergeLeft(kind, parts),
				"balanced-tree": mergeTree(kind, parts),
				"shuffled-fold": mergeLeft(kind, shuffled),
			} {
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d %v %s: merged state %+v != single-pass %+v (cuts %v)",
						trial, kind, name, got, want, cuts)
				}
			}
		}
	}
}

// TestAggStateOrderedFoldDeterminism: for arbitrary floats, the canonical
// reduction — per-chunk partials merged left-associatively in chunk order —
// must be bit-for-bit reproducible, and must match folding the same partials
// from a different compute path (AddColumn vs AddValue), which is how a
// pushed node-side partial and a coordinator-side partial end up identical.
func TestAggStateOrderedFoldDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	n := 500
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
	}
	col := lpq.FloatColumn(vals)
	cuts := []int{100, 137, 300, 450}

	fold := func(byColumn bool) uint64 {
		acc := NewAggState(AggSum)
		prev := 0
		for _, c := range append(append([]int(nil), cuts...), n) {
			part := NewAggState(AggSum)
			if byColumn {
				sub := lpq.FloatColumn(vals[prev:c])
				part.AddColumn(sub)
			} else {
				for i := prev; i < c; i++ {
					part.AddValue(col, i)
				}
			}
			acc.Merge(part)
			prev = c
		}
		return math.Float64bits(acc.Sum)
	}

	want := fold(true)
	for i := 0; i < 100; i++ {
		if got := fold(i%2 == 0); got != want {
			t.Fatalf("run %d: ordered fold produced %x, want %x", i, got, want)
		}
	}
}
