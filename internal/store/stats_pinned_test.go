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
// and the priced fields moved, no decision did). The simulated
// figures behind EXPERIMENTS.md are functions of exactly these numbers, so a
// refactor that keeps this table kept them. The node-down tables pin what a
// lost reply costs: which units fall back, how they are counted, and the
// survivor reads behind them.
var pinnedStats = map[string][]string{
	"fusion": {
		"sim=1183216 disk=56710 proc=9057 net=1117448 traffic=12056 filter=4 project=4 fetch=4 batch=6 groupagg=0 topk=0 partials=0 spills=0 on=4 off=4 pruned=0 sel=0.10504166666666667",
		"sim=1951971 disk=77969 proc=38003 net=1835997 traffic=158672 filter=8 project=12 fetch=8 batch=11 groupagg=0 topk=0 partials=0 spills=0 on=12 off=8 pruned=0 sel=0.8125416666666667",
		"sim=1202068 disk=16299 proc=31024 net=1154742 traffic=14393 filter=8 project=0 fetch=0 batch=11 groupagg=8 topk=0 partials=8 spills=0 on=0 off=0 pruned=0 sel=0.3625833333333333",
		"sim=639722 disk=14420 proc=24519 net=600782 traffic=2392 filter=0 project=0 fetch=0 batch=4 groupagg=8 topk=0 partials=8 spills=0 on=0 off=0 pruned=0 sel=1",
		"sim=1097491 disk=13965 proc=27455 net=1056068 traffic=19288 filter=4 project=0 fetch=3 batch=6 groupagg=4 topk=0 partials=12 spills=0 on=0 off=0 pruned=0 sel=0.805",
		"sim=974266 disk=0 proc=53332 net=920934 traffic=64643 filter=0 project=0 fetch=9 batch=1 groupagg=1 topk=0 partials=150 spills=3 on=0 off=0 pruned=0 sel=1",
		"sim=998075 disk=2609 proc=42383 net=953083 traffic=9374 filter=4 project=4 fetch=0 batch=7 groupagg=0 topk=4 partials=0 spills=0 on=4 off=0 pruned=0 sel=0.79275",
		"sim=721215 disk=11918 proc=9121 net=700174 traffic=430 filter=1 project=0 fetch=1 batch=1 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=3 sel=0.004166666666666667",
	},
	"always": {
		"sim=1009878 disk=2355 proc=39911 net=967610 traffic=16768 filter=4 project=8 fetch=0 batch=7 groupagg=0 topk=0 partials=0 spills=0 on=8 off=0 pruned=0 sel=0.10504166666666667",
		"sim=1609538 disk=28343 proc=71945 net=1509248 traffic=171034 filter=8 project=20 fetch=0 batch=12 groupagg=0 topk=0 partials=0 spills=0 on=20 off=0 pruned=0 sel=0.8125416666666667",
		"sim=1210247 disk=17480 proc=38151 net=1154613 traffic=14393 filter=8 project=0 fetch=0 batch=11 groupagg=8 topk=0 partials=8 spills=0 on=0 off=0 pruned=0 sel=0.3625833333333333",
		"sim=635443 disk=12909 proc=21748 net=600785 traffic=2392 filter=0 project=0 fetch=0 batch=4 groupagg=8 topk=0 partials=8 spills=0 on=0 off=0 pruned=0 sel=1",
		"sim=1097680 disk=12709 proc=28770 net=1056200 traffic=19288 filter=4 project=0 fetch=3 batch=6 groupagg=4 topk=0 partials=12 spills=0 on=0 off=0 pruned=0 sel=0.805",
		"sim=973575 disk=0 proc=52895 net=920679 traffic=64643 filter=0 project=0 fetch=9 batch=1 groupagg=1 topk=0 partials=150 spills=3 on=0 off=0 pruned=0 sel=1",
		"sim=991782 disk=2194 proc=36496 net=953089 traffic=9374 filter=4 project=4 fetch=0 batch=7 groupagg=0 topk=4 partials=0 spills=0 on=4 off=0 pruned=0 sel=0.79275",
		"sim=720126 disk=10828 proc=9137 net=700160 traffic=430 filter=1 project=0 fetch=1 batch=1 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=3 sel=0.004166666666666667",
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
		"sim=4282436 disk=149586 proc=39739 net=4093110 traffic=1071521 filter=5 project=9 fetch=49 batch=9 groupagg=0 topk=0 partials=0 spills=0 on=9 off=11 pruned=0 sel=0.8125416666666667",
		"sim=2861261 disk=72265 proc=30211 net=2758784 traffic=643447 filter=6 project=0 fetch=30 batch=9 groupagg=5 topk=0 partials=5 spills=3 on=0 off=0 pruned=0 sel=0.3625833333333333",
		"sim=1672632 disk=49926 proc=22169 net=1600536 traffic=462533 filter=0 project=0 fetch=18 batch=3 groupagg=5 topk=0 partials=5 spills=3 on=0 off=0 pruned=0 sel=1",
		"sim=2435607 disk=46181 proc=28511 net=2360913 traffic=495454 filter=3 project=0 fetch=28 batch=4 groupagg=2 topk=0 partials=6 spills=2 on=0 off=0 pruned=0 sel=0.805",
		"sim=2241248 disk=75943 proc=0 net=2165305 traffic=520142 filter=0 project=0 fetch=32 batch=0 groupagg=0 topk=0 partials=0 spills=4 on=0 off=0 pruned=0 sel=1",
		"sim=1976375 disk=37474 proc=38355 net=1900544 traffic=467071 filter=3 project=4 fetch=18 batch=5 groupagg=0 topk=2 partials=0 spills=0 on=4 off=0 pruned=0 sel=0.79275",
		"sim=721540 disk=13877 proc=7495 net=700167 traffic=430 filter=1 project=0 fetch=1 batch=1 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=3 sel=0.004166666666666667",
	},
	"always, node 8 down": {
		"sim=1997977 disk=38376 proc=41285 net=1918314 traffic=472814 filter=3 project=6 fetch=18 batch=5 groupagg=0 topk=0 partials=0 spills=0 on=6 off=2 pruned=0 sel=0.10504166666666667",
		"sim=4015983 disk=103076 proc=77732 net=3835174 traffic=1083412 filter=5 project=16 fetch=42 batch=10 groupagg=0 topk=0 partials=0 spills=0 on=16 off=4 pruned=0 sel=0.8125416666666667",
		"sim=2866911 disk=68080 proc=31659 net=2767171 traffic=643447 filter=6 project=0 fetch=30 batch=9 groupagg=5 topk=0 partials=5 spills=3 on=0 off=0 pruned=0 sel=0.3625833333333333",
		"sim=1674326 disk=51547 proc=22052 net=1600726 traffic=462533 filter=0 project=0 fetch=18 batch=3 groupagg=5 topk=0 partials=5 spills=3 on=0 off=0 pruned=0 sel=1",
		"sim=2435390 disk=47743 proc=30312 net=2357333 traffic=495454 filter=3 project=0 fetch=28 batch=4 groupagg=2 topk=0 partials=6 spills=2 on=0 off=0 pruned=0 sel=0.805",
		"sim=2244325 disk=78296 proc=0 net=2166029 traffic=520142 filter=0 project=0 fetch=32 batch=0 groupagg=0 topk=0 partials=0 spills=4 on=0 off=0 pruned=0 sel=1",
		"sim=1982540 disk=42889 proc=42403 net=1897246 traffic=467071 filter=3 project=4 fetch=18 batch=5 groupagg=0 topk=2 partials=0 spills=0 on=4 off=0 pruned=0 sel=0.79275",
		"sim=719183 disk=10822 proc=8193 net=700167 traffic=430 filter=1 project=0 fetch=1 batch=1 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=3 sel=0.004166666666666667",
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
