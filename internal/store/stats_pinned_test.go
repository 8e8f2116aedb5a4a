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
// frame was added or lost, so no later row's jitter moved). The simulated
// figures behind EXPERIMENTS.md are functions of exactly these numbers, so a
// refactor that keeps this table kept them. The node-down tables pin what a
// lost reply costs: which units fall back, how they are counted, and the
// survivor reads behind them.
var pinnedStats = map[string][]string{
	"fusion": {
		"sim=1183216 disk=56710 proc=9057 net=1117448 traffic=12056 filter=4 project=4 fetch=4 batch=6 groupagg=0 topk=0 partials=0 spills=0 on=4 off=4 pruned=0 sel=0.10504166666666667",
		"sim=1950291 disk=82566 proc=44981 net=1822742 traffic=154516 filter=6 project=12 fetch=8 batch=10 groupagg=0 topk=0 partials=0 spills=0 on=12 off=8 pruned=0 sel=0.8125416666666667",
		"sim=1156372 disk=16237 proc=35991 net=1104140 traffic=12757 filter=8 project=0 fetch=0 batch=10 groupagg=8 topk=0 partials=8 spills=0 on=0 off=0 pruned=0 sel=0.3625833333333333",
		"sim=638037 disk=13264 proc=23988 net=600784 traffic=2382 filter=0 project=0 fetch=0 batch=4 groupagg=8 topk=0 partials=8 spills=0 on=0 off=0 pruned=0 sel=1",
		"sim=1047848 disk=14210 proc=28515 net=1005119 traffic=16132 filter=4 project=0 fetch=2 batch=6 groupagg=4 topk=0 partials=12 spills=0 on=0 off=0 pruned=0 sel=0.805",
		"sim=857000 disk=22154 proc=15369 net=819477 traffic=61422 filter=0 project=0 fetch=6 batch=2 groupagg=2 topk=0 partials=300 spills=2 on=0 off=0 pruned=0 sel=1",
		"sim=997445 disk=2399 proc=41912 net=953133 traffic=9374 filter=4 project=4 fetch=0 batch=7 groupagg=0 topk=4 partials=0 spills=0 on=4 off=0 pruned=0 sel=0.79275",
		"sim=723174 disk=14209 proc=8797 net=700167 traffic=430 filter=1 project=0 fetch=1 batch=1 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=3 sel=0.004166666666666667",
	},
	"always": {
		"sim=1009878 disk=2355 proc=39911 net=967610 traffic=16768 filter=4 project=8 fetch=0 batch=7 groupagg=0 topk=0 partials=0 spills=0 on=8 off=0 pruned=0 sel=0.10504166666666667",
		"sim=1549991 disk=30057 proc=77188 net=1442744 traffic=163108 filter=6 project=20 fetch=0 batch=11 groupagg=0 topk=0 partials=0 spills=0 on=20 off=0 pruned=0 sel=0.8125416666666667",
		"sim=1156317 disk=15862 proc=36374 net=1104079 traffic=12757 filter=8 project=0 fetch=0 batch=10 groupagg=8 topk=0 partials=8 spills=0 on=0 off=0 pruned=0 sel=0.3625833333333333",
		"sim=637085 disk=13244 proc=23061 net=600778 traffic=2382 filter=0 project=0 fetch=0 batch=4 groupagg=8 topk=0 partials=8 spills=0 on=0 off=0 pruned=0 sel=1",
		"sim=1050672 disk=14681 proc=30818 net=1005172 traffic=16132 filter=4 project=0 fetch=2 batch=6 groupagg=4 topk=0 partials=12 spills=0 on=0 off=0 pruned=0 sel=0.805",
		"sim=861053 disk=22362 proc=19697 net=818993 traffic=61422 filter=0 project=0 fetch=6 batch=2 groupagg=2 topk=0 partials=300 spills=2 on=0 off=0 pruned=0 sel=1",
		"sim=991479 disk=13286 proc=25208 net=952982 traffic=9374 filter=4 project=4 fetch=0 batch=7 groupagg=0 topk=4 partials=0 spills=0 on=4 off=0 pruned=0 sel=0.79275",
		"sim=719503 disk=11706 proc=7634 net=700162 traffic=430 filter=1 project=0 fetch=1 batch=1 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=3 sel=0.004166666666666667",
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
		"sim=2167318 disk=91321 proc=9057 net=2066939 traffic=468102 filter=3 project=2 fetch=22 batch=4 groupagg=0 topk=0 partials=0 spills=0 on=2 off=6 pruned=0 sel=0.10504166666666667",
		"sim=4291378 disk=153486 proc=47788 net=4090102 traffic=1069002 filter=4 project=9 fetch=49 batch=8 groupagg=0 topk=0 partials=0 spills=0 on=9 off=11 pruned=0 sel=0.8125416666666667",
		"sim=2811478 disk=70336 proc=30416 net=2710724 traffic=642565 filter=6 project=0 fetch=30 batch=8 groupagg=5 topk=0 partials=5 spills=3 on=0 off=0 pruned=0 sel=0.3625833333333333",
		"sim=1680358 disk=52856 proc=24878 net=1602622 traffic=462528 filter=0 project=0 fetch=18 batch=3 groupagg=5 topk=0 partials=5 spills=3 on=0 off=0 pruned=0 sel=1",
		"sim=2383647 disk=53576 proc=25435 net=2304634 traffic=492298 filter=3 project=0 fetch=27 batch=4 groupagg=2 topk=0 partials=6 spills=2 on=0 off=0 pruned=0 sel=0.805",
		"sim=2138334 disk=58465 proc=15807 net=2064061 traffic=516921 filter=0 project=0 fetch=29 batch=1 groupagg=1 topk=0 partials=150 spills=3 on=0 off=0 pruned=0 sel=1",
		"sim=1979205 disk=41725 proc=36324 net=1901154 traffic=467071 filter=3 project=4 fetch=18 batch=5 groupagg=0 topk=2 partials=0 spills=0 on=4 off=0 pruned=0 sel=0.79275",
		"sim=720873 disk=13548 proc=7157 net=700165 traffic=430 filter=1 project=0 fetch=1 batch=1 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=3 sel=0.004166666666666667",
	},
	"always, node 8 down": {
		"sim=1997977 disk=38376 proc=41285 net=1918314 traffic=472814 filter=3 project=6 fetch=18 batch=5 groupagg=0 topk=0 partials=0 spills=0 on=6 off=2 pruned=0 sel=0.10504166666666667",
		"sim=3987467 disk=103745 proc=83893 net=3799827 traffic=1077877 filter=4 project=16 fetch=42 batch=9 groupagg=0 topk=0 partials=0 spills=0 on=16 off=4 pruned=0 sel=0.8125416666666667",
		"sim=2817392 disk=70685 proc=34132 net=2712572 traffic=642565 filter=6 project=0 fetch=30 batch=8 groupagg=5 topk=0 partials=5 spills=3 on=0 off=0 pruned=0 sel=0.3625833333333333",
		"sim=1678799 disk=53110 proc=22251 net=1603437 traffic=462528 filter=0 project=0 fetch=18 batch=3 groupagg=5 topk=0 partials=5 spills=3 on=0 off=0 pruned=0 sel=1",
		"sim=2378044 disk=49582 proc=25926 net=2302535 traffic=492298 filter=3 project=0 fetch=27 batch=4 groupagg=2 topk=0 partials=6 spills=2 on=0 off=0 pruned=0 sel=0.805",
		"sim=2146971 disk=58096 proc=20239 net=2068635 traffic=516921 filter=0 project=0 fetch=29 batch=1 groupagg=1 topk=0 partials=150 spills=3 on=0 off=0 pruned=0 sel=1",
		"sim=1979786 disk=41704 proc=42766 net=1895313 traffic=467071 filter=3 project=4 fetch=18 batch=5 groupagg=0 topk=2 partials=0 spills=0 on=4 off=0 pruned=0 sel=0.79275",
		"sim=722030 disk=13759 proc=8096 net=700173 traffic=430 filter=1 project=0 fetch=1 batch=1 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=3 sel=0.004166666666666667",
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
