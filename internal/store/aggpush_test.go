package store

import (
	"testing"
)

// ungroupedQueries are ungrouped aggregates. A column only aggregates read is
// reduced per (row group, chunk) as a GROUP BY with no key — on the node
// holding the chunk, or at the coordinator when no usable reply comes — and
// the partials merge in task order, the order the baseline merges its own.
var ungroupedQueries = []string{
	"SELECT COUNT(*), SUM(price), AVG(price), MIN(qty), MAX(qty) FROM obj WHERE flag = 'A'",
	"SELECT MIN(flag), MAX(flag), MIN(comment), MAX(comment) FROM obj WHERE qty < 40",
	"SELECT SUM(price), AVG(qty), COUNT(id) FROM obj",
	// qty is projected too: its aggregates fold the projected values.
	"SELECT qty, SUM(qty), MAX(comment) FROM obj WHERE qty >= 45",
}

// TestUngroupedAggregateEquivalence: every ungrouped aggregate returns exactly
// the baseline's values (==, no tolerance) — pushed, with the cache on, and
// with the node holding the first row group's price chunk down — and the
// pushed configuration reduces chunks in situ, moving fewer bytes.
func TestUngroupedAggregateEquivalence(t *testing.T) {
	data, _, _ := makeObject(t, 4, 3000, 91)
	run := func(name string, opts Options, down func(*Store) int, warm bool) []*Result {
		t.Helper()
		s, cl := newSimStore(t, opts)
		if _, err := s.Put("obj", data); err != nil {
			t.Fatal(err)
		}
		if down != nil {
			cl.SetDown(down(s), true)
		}
		var out []*Result
		for _, q := range ungroupedQueries {
			res, err := s.Query(q)
			if err == nil && warm {
				res, err = s.Query(q)
			}
			if err != nil {
				t.Fatalf("%s: %q: %v", name, q, err)
			}
			out = append(out, res)
		}
		return out
	}
	want := run("baseline", BaselineOptions(), nil, false)
	cached := fusionTestOptions()
	cached.CacheBytes = 64 << 20
	priceNode := func(s *Store) int {
		meta, err := s.Meta("obj")
		if err != nil {
			t.Fatal(err)
		}
		node, _, _ := chunkLocation(meta, 0, colPrice, meta.Footer.RowGroups[0].Chunks[colPrice])
		return node
	}
	for _, cfg := range []struct {
		name string
		opts Options
		down func(*Store) int
		warm bool
	}{
		{"fusion", fusionTestOptions(), nil, false},
		{"fusion, cache on", cached, nil, true},
		{"fusion, price node down", fusionTestOptions(), priceNode, false},
	} {
		got := run(cfg.name, cfg.opts, cfg.down, cfg.warm)
		for i, q := range ungroupedQueries {
			g, w := got[i], want[i]
			if len(g.AggValues) != len(w.AggValues) || resultKey(g) != resultKey(w) {
				t.Fatalf("%s: %q:\n--- got ---\n%s--- want ---\n%s", cfg.name, q, resultKey(g), resultKey(w))
			}
			for j := range w.AggValues {
				if g.AggValues[j] != w.AggValues[j] {
					t.Fatalf("%s: %q: %s = %v, baseline %v", cfg.name, q, w.AggLabels[j], g.AggValues[j], w.AggValues[j])
				}
			}
			if g.Stats.GroupAggRPCs == 0 {
				t.Errorf("%s: %q reduced no chunk in situ", cfg.name, q)
			}
			if cfg.down == nil && g.Stats.TrafficBytes >= w.Stats.TrafficBytes {
				t.Errorf("%s: %q moved %d bytes, the baseline %d", cfg.name, q, g.Stats.TrafficBytes, w.Stats.TrafficBytes)
			}
		}
		if cfg.down != nil && got[0].Stats.GroupSpills == 0 {
			t.Errorf("%s: the down node's price chunk was not reduced at the coordinator", cfg.name)
		}
	}
}

// TestAggregatePushdownMixedProjection: a column that is both projected and
// aggregated is materialized once and aggregated from the projected values;
// only the aggregate-only column is reduced in situ, one GroupAgg per row
// group.
func TestAggregatePushdownMixedProjection(t *testing.T) {
	data, _, _ := makeObject(t, 2, 500, 92)
	s, _ := newSimStore(t, fusionTestOptions())
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query("SELECT qty, SUM(qty), MAX(comment) FROM obj WHERE qty >= 45")
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, v := range res.Data[0].Ints {
		sum += v
	}
	if res.AggValues[0].F != float64(sum) {
		t.Fatalf("SUM(qty) = %v, want %d (from the projected values)", res.AggValues[0], sum)
	}
	if res.AggValues[1].S == "" {
		t.Fatal("MAX(comment) must be computed")
	}
	if res.Stats.GroupAggRPCs != 2 {
		t.Fatalf("GroupAggRPCs = %d, want 2 (comment's chunks only): %+v", res.Stats.GroupAggRPCs, res.Stats)
	}
}

// TestAggregatePushdownStringColumn covers MIN/MAX over string chunks reduced
// in situ.
func TestAggregatePushdownStringColumn(t *testing.T) {
	data, _, _ := makeObject(t, 2, 3000, 93)
	s, _ := newSimStore(t, fusionTestOptions())
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Query("SELECT MIN(flag), MAX(flag) FROM obj WHERE qty < 40")
	if err != nil {
		t.Fatal(err)
	}
	if got.AggValues[0].S != "A" || got.AggValues[1].S != "R" {
		t.Fatalf("string MIN/MAX = %v/%v, want A/R", got.AggValues[0], got.AggValues[1])
	}
	if got.Stats.GroupAggRPCs == 0 {
		t.Fatalf("flag's chunks were not reduced in situ: %+v", got.Stats)
	}
}
