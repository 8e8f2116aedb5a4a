package store

import (
	"fmt"
	"maps"
	"strings"
	"testing"

	"github.com/fusionstore/fusion/internal/simnet"
)

// pinnedQueries run in order against one store per configuration and are
// priced by one latency model; its jitter stream is shared across them, so a
// change in any query's cost ledger (op count or op order) moves every later
// sim figure too.
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
// captured at the commit before the per-op executor was deleted and taken
// again when PR 21 changed the chunk encodings (the byte-derived fields moved
// in every row; docs/results/PR-21.md explains each other field that did), and
// again when grouped pushdown began shipping a row group's smaller chunks to
// the node holding its largest (the GROUP BY rows' counters moved; the rows
// after them only in their priced fields, the jitter stream being shared), and
// again when bitmaps stopped crossing the network Snappy-compressed (traffic
// and the priced fields moved in every row that carries a bitmap), and again
// when an ungrouped aggregate became a GROUP BY with no key (queries 3 and 4
// moved their counters and bytes, later rows only their priced fields), and
// again when the ledger became the transport's record of the query (a fetch's
// request carries its block id, so traffic and the priced fields moved by 12 B
// a fetch; a degraded read's survivor reads entered the ledger, so the
// node-down rows moved fetch, traffic and every priced field). The simulated
// figures behind EXPERIMENTS.md are functions of exactly these numbers, so a
// refactor that keeps this table kept them. The node-down tables pin what a
// lost reply costs: which units fall back, how they are counted, and the
// survivor reads behind them.
var pinnedStats = map[string][]string{
	"fusion": {
		"sim=1076886 disk=17583 proc=31494 net=1027807 traffic=50663 filter=4 project=8 fetch=0 batch=8 groupagg=0 topk=0 partials=0 spills=0 on=8 off=0 pruned=0 sel=0.10504166666666667",
		"sim=2393028 disk=11996 proc=202007 net=2179023 traffic=245166 filter=8 project=0 fetch=20 batch=5 groupagg=0 topk=0 partials=0 spills=0 on=0 off=20 pruned=0 sel=0.8125416666666667",
		"sim=1157500 disk=17775 proc=35225 net=1104499 traffic=14265 filter=8 project=0 fetch=0 batch=10 groupagg=8 topk=0 partials=8 spills=0 on=0 off=0 pruned=0 sel=0.3625833333333333",
		"sim=687963 disk=13046 proc=24092 net=650825 traffic=2520 filter=0 project=0 fetch=0 batch=5 groupagg=8 topk=0 partials=8 spills=0 on=0 off=0 pruned=0 sel=1",
		"sim=996292 disk=15284 proc=26984 net=954021 traffic=12976 filter=4 project=0 fetch=1 batch=6 groupagg=4 topk=0 partials=12 spills=0 on=0 off=0 pruned=0 sel=0.805",
		"sim=975794 disk=0 proc=56043 net=919750 traffic=64643 filter=0 project=0 fetch=9 batch=1 groupagg=1 topk=0 partials=150 spills=3 on=0 off=0 pruned=0 sel=1",
		"sim=1156117 disk=19217 proc=33683 net=1103215 traffic=9762 filter=4 project=4 fetch=0 batch=10 groupagg=0 topk=4 partials=0 spills=0 on=4 off=0 pruned=0 sel=0.79275",
		"sim=726143 disk=9626 proc=16279 net=700236 traffic=646 filter=1 project=0 fetch=0 batch=2 groupagg=0 topk=1 partials=0 spills=0 on=0 off=0 pruned=3 sel=0.004166666666666667",
	},
	"always": {
		"sim=1076886 disk=17583 proc=31494 net=1027807 traffic=50663 filter=4 project=8 fetch=0 batch=8 groupagg=0 topk=0 partials=0 spills=0 on=8 off=0 pruned=0 sel=0.10504166666666667",
		"sim=1889867 disk=29287 proc=62261 net=1798315 traffic=882627 filter=8 project=20 fetch=0 batch=13 groupagg=0 topk=0 partials=0 spills=0 on=20 off=0 pruned=0 sel=0.8125416666666667",
		"sim=1158805 disk=17444 proc=36736 net=1104623 traffic=14265 filter=8 project=0 fetch=0 batch=10 groupagg=8 topk=0 partials=8 spills=0 on=0 off=0 pruned=0 sel=0.3625833333333333",
		"sim=685419 disk=13265 proc=21312 net=650841 traffic=2520 filter=0 project=0 fetch=0 batch=5 groupagg=8 topk=0 partials=8 spills=0 on=0 off=0 pruned=0 sel=1",
		"sim=996963 disk=13324 proc=29462 net=954176 traffic=12976 filter=4 project=0 fetch=1 batch=6 groupagg=4 topk=0 partials=12 spills=0 on=0 off=0 pruned=0 sel=0.805",
		"sim=973575 disk=0 proc=52895 net=920679 traffic=64643 filter=0 project=0 fetch=9 batch=1 groupagg=1 topk=0 partials=150 spills=3 on=0 off=0 pruned=0 sel=1",
		"sim=1151902 disk=16923 proc=31755 net=1103221 traffic=9762 filter=4 project=4 fetch=0 batch=10 groupagg=0 topk=4 partials=0 spills=0 on=4 off=0 pruned=0 sel=0.79275",
		"sim=725805 disk=9599 proc=15957 net=700247 traffic=646 filter=1 project=0 fetch=0 batch=2 groupagg=0 topk=1 partials=0 spills=0 on=0 off=0 pruned=3 sel=0.004166666666666667",
	},
	"baseline": {
		"sim=1941761 disk=0 proc=95756 net=1846003 traffic=102548 filter=0 project=0 fetch=24 batch=0 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=0 sel=0.10504166666666667",
		"sim=4454500 disk=0 proc=245309 net=4209190 traffic=303654 filter=0 project=0 fetch=64 batch=0 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=0 sel=0.8125416666666667",
		"sim=2033913 disk=0 proc=105727 net=1928186 traffic=87884 filter=0 project=0 fetch=26 batch=0 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=0 sel=0.3625833333333333",
		"sim=1283656 disk=0 proc=64533 net=1219123 traffic=62368 filter=0 project=0 fetch=16 batch=0 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=0 sel=1",
		"sim=1688261 disk=0 proc=66247 net=1622014 traffic=68984 filter=0 project=0 fetch=20 batch=0 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=0 sel=0.805",
		"sim=1495986 disk=0 proc=73298 net=1422688 traffic=68984 filter=0 project=0 fetch=20 batch=0 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=0 sel=1",
		"sim=1924551 disk=0 proc=91032 net=1833517 traffic=102548 filter=0 project=0 fetch=24 batch=0 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=0 sel=0.79275",
		"sim=821244 disk=0 proc=15071 net=806172 traffic=20090 filter=0 project=0 fetch=4 batch=0 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=3 sel=0.004166666666666667",
	},
	"fusion, node 8 down": {
		"sim=2432804 disk=70547 proc=33228 net=2329026 traffic=662256 filter=3 project=5 fetch=24 batch=6 groupagg=0 topk=0 partials=0 spills=0 on=5 off=3 pruned=0 sel=0.10504166666666667",
		"sim=5173871 disk=41098 proc=195409 net=4937363 traffic=1510088 filter=5 project=0 fetch=68 batch=4 groupagg=0 topk=0 partials=0 spills=0 on=0 off=20 pruned=0 sel=0.8125416666666667",
		"sim=3124259 disk=64569 proc=26666 net=3033022 traffic=731255 filter=5 project=0 fetch=36 batch=8 groupagg=5 topk=0 partials=5 spills=3 on=0 off=0 pruned=0 sel=0.3625833333333333",
		"sim=1690769 disk=43249 proc=14336 net=1633184 traffic=437326 filter=0 project=0 fetch=18 batch=4 groupagg=5 topk=0 partials=5 spills=3 on=0 off=0 pruned=0 sel=1",
		"sim=2664712 disk=61067 proc=31070 net=2572572 traffic=685525 filter=3 project=0 fetch=31 batch=4 groupagg=2 topk=0 partials=6 spills=2 on=0 off=0 pruned=0 sel=0.805",
		"sim=2578181 disk=96729 proc=0 net=2481451 traffic=715023 filter=0 project=0 fetch=37 batch=0 groupagg=0 topk=0 partials=0 spills=4 on=0 off=0 pruned=0 sel=1",
		"sim=2453628 disk=70556 proc=30174 net=2352897 traffic=636673 filter=3 project=3 fetch=24 batch=7 groupagg=0 topk=2 partials=0 spills=0 on=3 off=1 pruned=0 sel=0.79275",
		"sim=1365021 disk=36759 proc=0 net=1328260 traffic=389684 filter=0 project=0 fetch=12 batch=0 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=3 sel=0.004166666666666667",
	},
	"always, node 8 down": {
		"sim=2432804 disk=70547 proc=33228 net=2329026 traffic=662256 filter=3 project=5 fetch=24 batch=6 groupagg=0 topk=0 partials=0 spills=0 on=5 off=3 pruned=0 sel=0.10504166666666667",
		"sim=4984250 disk=135512 proc=41722 net=4807014 traffic=2006009 filter=5 project=14 fetch=54 batch=11 groupagg=0 topk=0 partials=0 spills=0 on=14 off=6 pruned=0 sel=0.8125416666666667",
		"sim=3126411 disk=68242 proc=23254 net=3034913 traffic=731255 filter=5 project=0 fetch=36 batch=8 groupagg=5 topk=0 partials=5 spills=3 on=0 off=0 pruned=0 sel=0.3625833333333333",
		"sim=1691388 disk=43071 proc=14280 net=1634036 traffic=437326 filter=0 project=0 fetch=18 batch=4 groupagg=5 topk=0 partials=5 spills=3 on=0 off=0 pruned=0 sel=1",
		"sim=2665347 disk=65757 proc=26818 net=2572769 traffic=685525 filter=3 project=0 fetch=31 batch=4 groupagg=2 topk=0 partials=6 spills=2 on=0 off=0 pruned=0 sel=0.805",
		"sim=2579802 disk=95529 proc=0 net=2484273 traffic=715023 filter=0 project=0 fetch=37 batch=0 groupagg=0 topk=0 partials=0 spills=4 on=0 off=0 pruned=0 sel=1",
		"sim=2459603 disk=72146 proc=32695 net=2354759 traffic=636673 filter=3 project=3 fetch=24 batch=7 groupagg=0 topk=2 partials=0 spills=0 on=3 off=1 pruned=0 sel=0.79275",
		"sim=1361776 disk=36519 proc=0 net=1325255 traffic=389684 filter=0 project=0 fetch=12 batch=0 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=3 sel=0.004166666666666667",
	},
}

// statsKey renders the query's counters and the latency m reads off its cost
// ledger (Stages and the result's wire size; CoordProcBytes feeds only Fig.
// 14d's CPU seconds), durations in integer nanoseconds so nothing is rounded
// away.
func statsKey(m *simnet.LatencyModel, res *Result) string {
	st, sim := res.Stats, simLatency(m, res)
	return fmt.Sprintf("sim=%d disk=%d proc=%d net=%d traffic=%d filter=%d project=%d fetch=%d batch=%d "+
		"groupagg=%d topk=%d partials=%d spills=%d on=%d off=%d pruned=%d sel=%v",
		sim.Total, sim.Phase.DiskRead, sim.Phase.Processing, sim.Phase.Network, st.TrafficBytes,
		st.FilterRPCs, st.ProjectRPCs, st.FetchRPCs, st.BatchRPCs,
		st.GroupAggRPCs, st.TopKRPCs, st.PartialGroups, st.GroupSpills, st.PushdownOn, st.PushdownOff,
		st.PrunedRowGroups, st.Selectivity)
}

// remoteLedger sums a query's remote ledger entries by node.
func remoteLedger(st QueryStats) map[int]wireTally {
	out := map[int]wireTally{}
	for _, stage := range st.Stages {
		for _, op := range stage {
			if !op.Local {
				w := out[op.Node]
				out[op.Node] = wireTally{w.n + 1, w.req + op.ReqBytes, w.resp + op.RespBytes}
			}
		}
	}
	return out
}

// TestQueryStatsPinned proves an executor refactor moved no simulated
// figure: RPC counts, traffic bytes, pushdown decisions and the latency
// sample (whose jitter draws depend on cost-sheet op order) all match the
// recorded table. It also holds the ledger to the transport: per node, the
// query's remote entries are the data-plane replies the cluster client
// returned, in count, request bytes and reply bytes, and none names a down
// node.
func TestQueryStatsPinned(t *testing.T) {
	data, _, _ := makeObject(t, 4, 6000, 123)
	always := fusionTestOptions()
	always.Pushdown = PushdownAlways
	baseline := BaselineOptions()
	baseline.FixedBlockSize = 8192 // chunks split across blocks and nodes
	for _, cfg := range []struct {
		name string
		opts Options
		down []int // nodes taken down after the Put
	}{
		{"fusion", fusionTestOptions(), nil},
		{"always", always, nil},
		{"baseline", baseline, nil},
		// Node 8 hosts chunks every pushed kind asks about — filter,
		// project, group-agg (grouped and ungrouped) and top-k each lose
		// replies — so these pin the fallback paths: fetched (and
		// reconstructed) filter leaves, PushdownOff projections, grouped
		// spills, local top-k.
		{"fusion, node 8 down", fusionTestOptions(), []int{8}},
		{"always, node 8 down", always, []int{8}},
	} {
		cfg.opts.QueryWorkers = 8 // real fan-out: fork/join order, not luck, keeps the sheets stable
		cl := simnet.New(simnet.DefaultConfig())
		tap := &tapClient{inner: cl}
		s, err := New(tap, cfg.opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Put("obj", data); err != nil {
			t.Fatal(err)
		}
		for _, n := range cfg.down {
			cl.SetDown(n, true)
		}
		model := newSimModel()
		var got []string
		for _, q := range pinnedQueries {
			tap.take()
			res, err := s.Query(q)
			if err != nil {
				t.Fatalf("%s: %q: %v", cfg.name, q, err)
			}
			got = append(got, statsKey(model, res))
			replies, _ := tap.take()
			if ledger := remoteLedger(res.Stats); !maps.Equal(ledger, replies) {
				t.Errorf("%s: %q: ledger by node %v, transport replies %v", cfg.name, q, ledger, replies)
			}
			for _, n := range cfg.down {
				if w, ok := remoteLedger(res.Stats)[n]; ok {
					t.Errorf("%s: %q: down node %d charged %+v", cfg.name, q, n, w)
				}
			}
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
