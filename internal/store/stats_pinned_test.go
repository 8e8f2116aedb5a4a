package store

import (
	"fmt"
	"strings"
	"testing"
)

// pinnedQueries run in order against one store per configuration; the
// latency model's jitter stream is shared across them, so a change in any
// query's cost sheet (op count or op order) moves every later Sim figure too.
var pinnedQueries = []string{
	"SELECT id, price FROM obj WHERE qty < 5",
	"SELECT * FROM obj WHERE qty < 45 AND price > 10.0",
	"SELECT count(*), sum(price), avg(qty) FROM obj WHERE flag = 'A' OR qty >= 48",
	"SELECT min(qty), max(price) FROM obj",
	"SELECT flag, COUNT(*), SUM(price) FROM obj WHERE qty < 40 GROUP BY flag",
	"SELECT flag, qty, AVG(price) FROM obj GROUP BY flag, qty ORDER BY flag, qty LIMIT 10",
	"SELECT id, price FROM obj WHERE qty >= 10 ORDER BY price DESC LIMIT 7",
	"SELECT id FROM obj WHERE id < 100 ORDER BY id LIMIT 4",
}

// pinnedStats is Result.Stats minus Wall for every (configuration, query),
// captured at the commit before the per-op executor was deleted. The
// simulated figures behind EXPERIMENTS.md are functions of exactly these
// numbers, so a refactor that keeps this table kept them.
var pinnedStats = map[string][]string{
	"fusion": {
		"sim=1231147 disk=28660 proc=22792 net=1179694 traffic=51857 filter=4 project=8 agg=0 fetch=0 batch=11 groupagg=0 topk=0 partials=0 spills=0 on=8 off=0 pruned=0 sel=0.10504166666666667",
		"sim=2523352 disk=18714 proc=194449 net=2310187 traffic=372586 filter=8 project=0 agg=0 fetch=20 batch=7 groupagg=0 topk=0 partials=0 spills=0 on=0 off=20 pruned=0 sel=0.8125416666666667",
		"sim=1375554 disk=2137 proc=42331 net=1331085 traffic=99928 filter=8 project=4 agg=0 fetch=4 batch=10 groupagg=0 topk=0 partials=0 spills=0 on=4 off=4 pruned=0 sel=0.3625833333333333",
		"sim=909676 disk=0 proc=67142 net=842533 traffic=132092 filter=0 project=0 agg=0 fetch=8 batch=0 groupagg=0 topk=0 partials=0 spills=0 on=0 off=8 pruned=0 sel=1",
		"sim=1160183 disk=20217 proc=19357 net=1120607 traffic=66758 filter=4 project=0 agg=0 fetch=4 batch=6 groupagg=2 topk=0 partials=6 spills=2 on=0 off=0 pruned=0 sel=0.805",
		"sim=1118812 disk=0 proc=71717 net=1047094 traffic=138660 filter=0 project=0 agg=0 fetch=12 batch=0 groupagg=0 topk=0 partials=0 spills=4 on=0 off=0 pruned=0 sel=1",
		"sim=1433212 disk=46200 proc=33318 net=1353692 traffic=11460 filter=4 project=8 agg=0 fetch=0 batch=15 groupagg=0 topk=4 partials=0 spills=0 on=8 off=0 pruned=0 sel=0.79275",
		"sim=810075 disk=35743 proc=23948 net=750382 traffic=1086 filter=1 project=1 agg=0 fetch=0 batch=3 groupagg=0 topk=1 partials=0 spills=0 on=1 off=0 pruned=3 sel=0.004166666666666667",
	},
	"always+aggpush": {
		"sim=1231147 disk=28660 proc=22792 net=1179694 traffic=51857 filter=4 project=8 agg=0 fetch=0 batch=11 groupagg=0 topk=0 partials=0 spills=0 on=8 off=0 pruned=0 sel=0.10504166666666667",
		"sim=2051307 disk=50887 proc=52739 net=1947679 traffic=882618 filter=8 project=20 agg=0 fetch=0 batch=16 groupagg=0 topk=0 partials=0 spills=0 on=20 off=0 pruned=0 sel=0.8125416666666667",
		"sim=1300638 disk=20017 proc=25932 net=1254687 traffic=14932 filter=8 project=0 agg=8 fetch=0 batch=13 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=0 sel=0.3625833333333333",
		"sim=783661 disk=18078 proc=14798 net=750784 traffic=2408 filter=0 project=0 agg=8 fetch=0 batch=7 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=0 sel=1",
		"sim=1157334 disk=19024 proc=18674 net=1119634 traffic=66758 filter=4 project=0 agg=0 fetch=4 batch=6 groupagg=2 topk=0 partials=6 spills=2 on=0 off=0 pruned=0 sel=0.805",
		"sim=1114876 disk=0 proc=70170 net=1044705 traffic=138660 filter=0 project=0 agg=0 fetch=12 batch=0 groupagg=0 topk=0 partials=0 spills=4 on=0 off=0 pruned=0 sel=1",
		"sim=1431909 disk=45518 proc=32685 net=1353705 traffic=11460 filter=4 project=8 agg=0 fetch=0 batch=15 groupagg=0 topk=4 partials=0 spills=0 on=8 off=0 pruned=0 sel=0.79275",
		"sim=810543 disk=35910 proc=24251 net=750380 traffic=1086 filter=1 project=1 agg=0 fetch=0 batch=3 groupagg=0 topk=1 partials=0 spills=0 on=1 off=0 pruned=3 sel=0.004166666666666667",
	},
	"baseline": {
		"sim=2681237 disk=0 proc=94351 net=2586885 traffic=231999 filter=0 project=0 agg=0 fetch=38 batch=0 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=0 sel=0.10504166666666667",
		"sim=5705912 disk=0 proc=241819 net=5464093 traffic=504845 filter=0 project=0 agg=0 fetch=88 batch=0 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=0 sel=0.8125416666666667",
		"sim=2552648 disk=0 proc=102182 net=2450466 traffic=160584 filter=0 project=0 agg=0 fetch=36 batch=0 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=0 sel=0.3625833333333333",
		"sim=1707902 disk=0 proc=64098 net=1643804 traffic=134140 filter=0 project=0 agg=0 fetch=24 batch=0 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=0 sel=1",
		"sim=2212350 disk=0 proc=67548 net=2144802 traffic=140964 filter=0 project=0 agg=0 fetch=30 batch=0 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=0 sel=0.805",
		"sim=2016974 disk=0 proc=71510 net=1945463 traffic=140964 filter=0 project=0 agg=0 fetch=30 batch=0 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=0 sel=1",
		"sim=3634795 disk=0 proc=125542 net=3509252 traffic=346519 filter=0 project=0 agg=0 fetch=56 batch=0 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=0 sel=0.79275",
		"sim=1095895 disk=0 proc=21615 net=1074279 traffic=73206 filter=0 project=0 agg=0 fetch=9 batch=0 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=3 sel=0.004166666666666667",
	},
}

// statsKey renders every QueryStats field except Wall, durations in integer
// nanoseconds so nothing is rounded away.
func statsKey(st QueryStats) string {
	return fmt.Sprintf("sim=%d disk=%d proc=%d net=%d traffic=%d filter=%d project=%d agg=%d fetch=%d batch=%d "+
		"groupagg=%d topk=%d partials=%d spills=%d on=%d off=%d pruned=%d sel=%v",
		st.Sim.Total, st.Sim.Phase.DiskRead, st.Sim.Phase.Processing, st.Sim.Phase.Network, st.TrafficBytes,
		st.FilterRPCs, st.ProjectRPCs, st.AggregateRPCs, st.FetchRPCs, st.BatchRPCs,
		st.GroupAggRPCs, st.TopKRPCs, st.PartialGroups, st.GroupSpills, st.PushdownOn, st.PushdownOff,
		st.PrunedRowGroups, st.Selectivity)
}

// TestQueryStatsPinned proves an executor refactor moved no simulated
// figure: RPC counts, traffic bytes, pushdown decisions and the latency
// sample (whose jitter draws depend on cost-sheet op order) all match the
// recorded table.
func TestQueryStatsPinned(t *testing.T) {
	data, _, _ := makeObject(t, 4, 6000, 123)
	always := fusionTestOptions()
	always.Pushdown = PushdownAlways
	always.AggregatePushdown = true
	baseline := BaselineOptions()
	baseline.FixedBlockSize = 8192 // chunks split across blocks and nodes
	for _, cfg := range []struct {
		name string
		opts Options
	}{
		{"fusion", fusionTestOptions()},
		{"always+aggpush", always},
		{"baseline", baseline},
	} {
		cfg.opts.QueryWorkers = 8 // real fan-out: fork/join order, not luck, keeps the sheets stable
		s, _ := newSimStore(t, cfg.opts)
		if _, err := s.Put("obj", data); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, q := range pinnedQueries {
			res, err := s.Query(q)
			if err != nil {
				t.Fatalf("%s: %q: %v", cfg.name, q, err)
			}
			got = append(got, statsKey(res.Stats))
		}
		want := pinnedStats[cfg.name]
		for i := range got {
			if i >= len(want) || got[i] != want[i] {
				t.Errorf("%s: stats moved; got table:\n\t%q: {\n\t\t%s,\n\t},",
					cfg.name, cfg.name, "\""+strings.Join(got, "\",\n\t\t\"")+"\"")
				break
			}
		}
	}
}
