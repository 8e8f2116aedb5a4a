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
// node-down rows moved fetch, traffic and every priced field), and again when
// non-dictionary string chunks became FSST (the test object's comment chunks
// shrank, so the FAC stripes, which chunks share a node and what node 8
// holds all moved: every byte-derived and priced field, the GROUP BY rows'
// push-or-spill choices, and the node-down rows' fallbacks), and again when a
// pushed projection began replying in the chunk's own encoding and being
// pushed iff that reply and the selection are smaller than the chunk (traffic
// fell in every row that pushes a projection; adaptive pushes 16 of the
// SELECT *'s 20 chunks where it pushed none; the other rows moved only in
// their priced fields, the jitter stream being shared), and again when sorted
// integer pages began holding the steps between rows (the test object's id
// chunks, 11-bit offsets before, became width-0 delta pages of about 20
// bytes, so the FAC stripes moved and every byte-derived and priced field
// with them; adaptive pushdown now fetches an id chunk rather than push its
// projection, whose reply and selection would outweigh it, so the first two
// rows push 4 and 12 projections where they pushed 8 and 16; the ORDER BY id
// row fetches the id chunk where it pushed a top-k; and the GROUP BY flag,
// qty row pushes one row group's grouped aggregate where it spilled all
// four, a placement choice), and again when bitmaps went back to three wire
// forms (the second row's 81% selections travel as words rather than as the
// gaps between clear bits, and a full one as runs, 3 B more each: traffic
// and the priced fields moved, no decision did), and again when a stripe's
// data bins began going beside the chunks of their row groups and a frame
// began carrying a selection its sub-ops share once (the FAC stripes' nodes
// moved, so every priced field moved with them; the SELECT * and OR-filter
// rows send a frame fewer, and their selections and the MIN/MAX row's cross
// once per frame; the GROUP BY flag row ships one chunk fewer; the GROUP BY
// flag, qty row pushes two row groups where it pushed one, and one where it
// pushed none with node 8 down), and again when a node began ANDing the
// conjuncts of a WHERE clause it holds and replying one bitmap (only the
// second row moved, qty < 45 AND price > 10.0: the row groups whose qty and
// price chunks share a node send one Filter where they sent two — filter 8 →
// 6, and 5 → 4 with node 8 down — and one bitmap where two came back, so
// traffic fell by 1,766 B, or 883 B with node 8 down, and net and sim with
// it; disk and proc did not move, the two leaves reading two chunks; no
// frame was added or lost, so no later row's jitter moved), and again when
// FAC began gathering each row group's chunks into bins of their own and a
// bin no node held a row group of began going to the emptiest node (the FAC
// stripes' bins and nodes moved, so disk, proc, net and sim moved in every
// row of the four FAC tables; no push, fetch or spill decision moved; a
// row group's chunks now meet on fewer nodes but one column's spread over
// more, so the SELECT * and ORDER BY price rows send two frames more, 10 →
// 12 and 7 → 9, as does PushdownAlways's first row; with node 8 down it
// held fewer of the chunks asked for, so traffic fell by ≈137 KB in rows 1,
// 3, 4 and 7 and by 141 KB in the SELECT *), and again when a row group's
// projections began riding its conjunction's frame where their chunks share
// the conjunction's node, carrying the conjunction as their selection, and
// the node began pricing them on exact bytes (only the adaptive tables
// moved: row 1's four price projections ride the qty Filter's frame, so its
// bitmap no longer goes out again, traffic 12,056 → 10,766 B (331,098 →
// 330,473 B with node 8 down); in the SELECT * row the nodes push two projections the
// planner's estimate fetched, project 12 → 14 and fetch 8 → 6, traffic
// 155,526 → 153,462 B, and with node 8 down project 9 → 10, fetch 49 → 48;
// the projection stage sends fewer frames, so every later row's priced
// fields — sim, disk, proc, net — moved with the jitter stream, and no
// other counter did). The simulated
// figures behind EXPERIMENTS.md are functions of exactly these numbers, so a
// refactor that keeps this table kept them. The node-down tables pin what a
// lost reply costs: which units fall back, how they are counted, and the
// survivor reads behind them.
var pinnedStats = map[string][]string{
	"fusion": {
		"sim=1169795 disk=7067 proc=45660 net=1117068 traffic=10766 filter=4 project=4 fetch=4 batch=6 groupagg=0 topk=0 partials=0 spills=0 on=4 off=4 pruned=0 sel=0.10504166666666667",
		"sim=1970276 disk=63092 proc=56753 net=1850428 traffic=153462 filter=6 project=14 fetch=6 batch=12 groupagg=0 topk=0 partials=0 spills=0 on=14 off=6 pruned=0 sel=0.8125416666666667",
		"sim=1155365 disk=15114 proc=36154 net=1104096 traffic=12757 filter=8 project=0 fetch=0 batch=10 groupagg=8 topk=0 partials=8 spills=0 on=0 off=0 pruned=0 sel=0.3625833333333333",
		"sim=641010 disk=13117 proc=27093 net=600800 traffic=2382 filter=0 project=0 fetch=0 batch=4 groupagg=8 topk=0 partials=8 spills=0 on=0 off=0 pruned=0 sel=1",
		"sim=1048157 disk=13973 proc=29138 net=1005045 traffic=16132 filter=4 project=0 fetch=2 batch=6 groupagg=4 topk=0 partials=12 spills=0 on=0 off=0 pruned=0 sel=0.805",
		"sim=859009 disk=21686 proc=18737 net=818584 traffic=61422 filter=0 project=0 fetch=6 batch=2 groupagg=2 topk=0 partials=300 spills=2 on=0 off=0 pruned=0 sel=1",
		"sim=1091333 disk=13502 proc=24736 net=1053091 traffic=9630 filter=4 project=4 fetch=0 batch=9 groupagg=0 topk=4 partials=0 spills=0 on=4 off=0 pruned=0 sel=0.79275",
		"sim=723046 disk=13894 proc=8992 net=700159 traffic=430 filter=1 project=0 fetch=1 batch=1 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=3 sel=0.004166666666666667",
	},
	"always": {
		"sim=1105065 disk=12406 proc=25396 net=1067262 traffic=17024 filter=4 project=8 fetch=0 batch=9 groupagg=0 topk=0 partials=0 spills=0 on=8 off=0 pruned=0 sel=0.10504166666666667",
		"sim=1586929 disk=23147 proc=61706 net=1502075 traffic=162482 filter=6 project=20 fetch=0 batch=12 groupagg=0 topk=0 partials=0 spills=0 on=20 off=0 pruned=0 sel=0.8125416666666667",
		"sim=1159110 disk=17708 proc=37301 net=1104098 traffic=12757 filter=8 project=0 fetch=0 batch=10 groupagg=8 topk=0 partials=8 spills=0 on=0 off=0 pruned=0 sel=0.3625833333333333",
		"sim=636768 disk=12430 proc=23531 net=600806 traffic=2382 filter=0 project=0 fetch=0 batch=4 groupagg=8 topk=0 partials=8 spills=0 on=0 off=0 pruned=0 sel=1",
		"sim=1047306 disk=12641 proc=29462 net=1005202 traffic=16132 filter=4 project=0 fetch=2 batch=6 groupagg=4 topk=0 partials=12 spills=0 on=0 off=0 pruned=0 sel=0.805",
		"sim=857043 disk=19870 proc=16887 net=820284 traffic=61422 filter=0 project=0 fetch=6 batch=2 groupagg=2 topk=0 partials=300 spills=2 on=0 off=0 pruned=0 sel=1",
		"sim=1091657 disk=12465 proc=26085 net=1053105 traffic=9630 filter=4 project=4 fetch=0 batch=9 groupagg=0 topk=4 partials=0 spills=0 on=4 off=0 pruned=0 sel=0.79275",
		"sim=719767 disk=10935 proc=8673 net=700157 traffic=430 filter=1 project=0 fetch=1 batch=1 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=3 sel=0.004166666666666667",
	},
	"baseline": {
		"sim=1627560 disk=0 proc=94527 net=1533033 traffic=62708 filter=0 project=0 fetch=18 batch=0 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=0 sel=0.10504166666666667",
		"sim=3883504 disk=0 proc=246998 net=3636505 traffic=235468 filter=0 project=0 fetch=54 batch=0 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=0 sel=0.8125416666666667",
		"sim=1935272 disk=0 proc=106693 net=1828578 traffic=87604 filter=0 project=0 fetch=24 batch=0 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=0 sel=0.3625833333333333",
		"sim=1183125 disk=0 proc=62643 net=1120481 traffic=62088 filter=0 project=0 fetch=14 batch=0 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=0 sel=1",
		"sim=1694641 disk=0 proc=73407 net=1621234 traffic=68984 filter=0 project=0 fetch=20 batch=0 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=0 sel=0.805",
		"sim=1492725 disk=0 proc=71128 net=1421597 traffic=68984 filter=0 project=0 fetch=20 batch=0 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=0 sel=1",
		"sim=1613312 disk=0 proc=94175 net=1519135 traffic=62708 filter=0 project=0 fetch=18 batch=0 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=0 sel=0.79275",
		"sim=715715 disk=0 proc=15588 net=700126 traffic=310 filter=0 project=0 fetch=2 batch=0 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=3 sel=0.004166666666666667",
	},
	"fusion, node 8 down": {
		"sim=2095184 disk=58256 proc=14351 net=2022577 traffic=330473 filter=3 project=2 fetch=22 batch=4 groupagg=0 topk=0 partials=0 spills=0 on=2 off=6 pruned=0 sel=0.10504166666666667",
		"sim=4228234 disk=124087 proc=56787 net=4047358 traffic=926740 filter=4 project=10 fetch=48 batch=10 groupagg=0 topk=0 partials=0 spills=0 on=10 off=10 pruned=0 sel=0.8125416666666667",
		"sim=2753623 disk=55582 proc=32894 net=2665145 traffic=506382 filter=6 project=0 fetch=30 batch=8 groupagg=5 topk=0 partials=5 spills=3 on=0 off=0 pruned=0 sel=0.3625833333333333",
		"sim=1618353 disk=35501 proc=27366 net=1555485 traffic=325551 filter=0 project=0 fetch=18 batch=3 groupagg=5 topk=0 partials=5 spills=3 on=0 off=0 pruned=0 sel=1",
		"sim=2381465 disk=49123 proc=29516 net=2302825 traffic=487051 filter=3 project=0 fetch=27 batch=4 groupagg=2 topk=0 partials=6 spills=2 on=0 off=0 pruned=0 sel=0.805",
		"sim=2140894 disk=56102 proc=20434 net=2064357 traffic=511674 filter=0 project=0 fetch=29 batch=1 groupagg=1 topk=0 partials=150 spills=3 on=0 off=0 pruned=0 sel=1",
		"sim=2018518 disk=37528 proc=24737 net=1956250 traffic=330350 filter=3 project=4 fetch=18 batch=7 groupagg=0 topk=2 partials=0 spills=0 on=4 off=0 pruned=0 sel=0.79275",
		"sim=720384 disk=11683 proc=8530 net=700170 traffic=430 filter=1 project=0 fetch=1 batch=1 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=3 sel=0.004166666666666667",
	},
	"always, node 8 down": {
		"sim=2034575 disk=36622 proc=25512 net=1972439 traffic=336066 filter=3 project=6 fetch=18 batch=7 groupagg=0 topk=0 partials=0 spills=0 on=6 off=2 pruned=0 sel=0.10504166666666667",
		"sim=3935005 disk=87393 proc=61011 net=3786599 traffic=935006 filter=4 project=16 fetch=42 batch=10 groupagg=0 topk=0 partials=0 spills=0 on=16 off=4 pruned=0 sel=0.8125416666666667",
		"sim=2755140 disk=53965 proc=37054 net=2664120 traffic=506382 filter=6 project=0 fetch=30 batch=8 groupagg=5 topk=0 partials=5 spills=3 on=0 off=0 pruned=0 sel=0.3625833333333333",
		"sim=1620726 disk=39719 proc=23825 net=1557182 traffic=325551 filter=0 project=0 fetch=18 batch=3 groupagg=5 topk=0 partials=5 spills=3 on=0 off=0 pruned=0 sel=1",
		"sim=2386762 disk=49682 proc=30312 net=2306767 traffic=487051 filter=3 project=0 fetch=27 batch=4 groupagg=2 topk=0 partials=6 spills=2 on=0 off=0 pruned=0 sel=0.805",
		"sim=2127479 disk=52681 proc=17020 net=2057777 traffic=511674 filter=0 project=0 fetch=29 batch=1 groupagg=1 topk=0 partials=150 spills=3 on=0 off=0 pruned=0 sel=1",
		"sim=2017038 disk=39392 proc=22376 net=1955268 traffic=330350 filter=3 project=4 fetch=18 batch=7 groupagg=0 topk=2 partials=0 spills=0 on=4 off=0 pruned=0 sel=0.79275",
		"sim=722037 disk=13165 proc=8705 net=700166 traffic=430 filter=1 project=0 fetch=1 batch=1 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=3 sel=0.004166666666666667",
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
