package fusion_test

import (
	"fmt"
	"math"
	"testing"

	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/simnet"
	"github.com/fusionstore/fusion/internal/store"
	"github.com/fusionstore/fusion/internal/tpch"
)

// groupbyGateQueries is the seeded-corpus equivalence suite: GROUP BY with
// every aggregate kind, grouped ORDER BY on keys and aggregates, and
// ORDER BY+LIMIT top-k, all over lineitem. Each has a deterministic result
// order, so pushed-down and coordinator-side execution must agree exactly.
var groupbyGateQueries = []string{
	"SELECT l_returnflag, COUNT(*), SUM(l_extendedprice), AVG(l_quantity), MIN(l_shipdate), MAX(l_shipdate) FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag",
	"SELECT l_linestatus, COUNT(*), SUM(l_quantity) FROM lineitem WHERE l_quantity < 25 GROUP BY l_linestatus ORDER BY l_linestatus",
	"SELECT l_shipmode, COUNT(*) FROM lineitem GROUP BY l_shipmode ORDER BY COUNT(*) DESC, l_shipmode LIMIT 3",
	"SELECT l_returnflag, l_linestatus, AVG(l_extendedprice) FROM lineitem GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus",
	"SELECT l_orderkey, l_extendedprice FROM lineitem ORDER BY l_extendedprice DESC LIMIT 10",
	"SELECT l_orderkey FROM lineitem WHERE l_quantity > 40 ORDER BY l_orderkey LIMIT 25",
}

// gateResultKey renders a query result with floats as raw bits: the gate
// demands bit-identical tables, not approximately equal ones.
func gateResultKey(res *store.Result) string {
	s := fmt.Sprintf("rows=%d cols=%v\n", res.Rows, res.Columns)
	for i, col := range res.Data {
		s += fmt.Sprintf("col %d type=%v ", i, col.Type)
		switch col.Type {
		case lpq.Int64:
			s += fmt.Sprint(col.Ints)
		case lpq.Float64:
			for _, f := range col.Floats {
				s += fmt.Sprintf(" %016x", math.Float64bits(f))
			}
		default:
			s += fmt.Sprintf("%q", col.Strings)
		}
		s += "\n"
	}
	return s
}

func gateStore(t *testing.T, opts store.Options, data []byte) (*store.Store, *simnet.Cluster) {
	t.Helper()
	cl := simnet.New(simnet.DefaultConfig())
	opts.StorageBudget = 0.2
	s, err := store.New(cl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("lineitem", data); err != nil {
		t.Fatal(err)
	}
	return s, cl
}

// TestGroupByPushdownGate is the equivalence suite for the grouped and
// top-k pushdown paths: every gate query must return a byte-identical
// result table under (1) full pushdown, (2) pushdown with a storage node
// down (degraded reads reconstruct the chunks and the stage spills to the
// coordinator), and (3) the fixed-block baseline that executes everything
// coordinator-side — and the pushdown deployment must actually have pushed
// work down.
func TestGroupByPushdownGate(t *testing.T) {
	cfg := tpch.DefaultConfig()
	cfg.RowsPerGroup = 5000
	data, err := tpch.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	baseline, _ := gateStore(t, store.BaselineOptions(), data)
	pushed, cl := gateStore(t, store.FusionOptions(), data)

	var groupRPCs, topkRPCs int
	for _, q := range groupbyGateQueries {
		want, err := baseline.Query(q)
		if err != nil {
			t.Fatalf("baseline: %q: %v", q, err)
		}
		got, err := pushed.Query(q)
		if err != nil {
			t.Fatalf("pushdown: %q: %v", q, err)
		}
		if gk, wk := gateResultKey(got), gateResultKey(want); gk != wk {
			t.Errorf("pushdown diverges from coordinator reference on %q:\n--- pushed ---\n%s--- reference ---\n%s", q, gk, wk)
		}
		groupRPCs += got.Stats.GroupAggRPCs
		topkRPCs += got.Stats.TopKRPCs

		// Degraded leg: take one storage node down; grouped/top-k work on
		// its chunks must spill to the coordinator over reconstructed reads
		// and still match exactly.
		cl.SetDown(2, true)
		deg, err := pushed.Query(q)
		cl.SetDown(2, false)
		if err != nil {
			t.Fatalf("degraded: %q: %v", q, err)
		}
		if dk, wk := gateResultKey(deg), gateResultKey(want); dk != wk {
			t.Errorf("degraded read diverges from coordinator reference on %q:\n--- degraded ---\n%s--- reference ---\n%s", q, dk, wk)
		}
	}
	if groupRPCs == 0 {
		t.Error("gate never exercised grouped-aggregation pushdown (GroupAggRPCs=0)")
	}
	if topkRPCs == 0 {
		t.Error("gate never exercised top-k pushdown (TopKRPCs=0)")
	}
	t.Logf("gate: %d queries, %d group-agg rpcs, %d top-k rpcs", len(groupbyGateQueries), groupRPCs, topkRPCs)
}
