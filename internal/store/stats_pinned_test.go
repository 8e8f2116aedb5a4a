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
// their priced fields, the jitter stream being shared). The simulated
// figures behind EXPERIMENTS.md are functions of exactly these numbers, so a
// refactor that keeps this table kept them. The node-down tables pin what a
// lost reply costs: which units fall back, how they are counted, and the
// survivor reads behind them.
var pinnedStats = map[string][]string{
	"fusion": {
		"sim=1116974 disk=17583 proc=31494 net=1067894 traffic=19072 filter=4 project=8 fetch=0 batch=9 groupagg=0 topk=0 partials=0 spills=0 on=8 off=0 pruned=0 sel=0.10504166666666667",
		"sim=1858245 disk=30657 proc=56678 net=1770908 traffic=193511 filter=8 project=16 fetch=4 batch=12 groupagg=0 topk=0 partials=0 spills=0 on=16 off=4 pruned=0 sel=0.8125416666666667",
		"sim=1058355 disk=16095 proc=37696 net=1004563 traffic=14009 filter=8 project=0 fetch=0 batch=8 groupagg=8 topk=0 partials=8 spills=0 on=0 off=0 pruned=0 sel=0.3625833333333333",
		"sim=637318 disk=13172 proc=23349 net=600796 traffic=2392 filter=0 project=0 fetch=0 batch=4 groupagg=8 topk=0 partials=8 spills=0 on=0 off=0 pruned=0 sel=1",
		"sim=1150820 disk=14156 proc=29573 net=1107089 traffic=22444 filter=4 project=0 fetch=4 batch=6 groupagg=4 topk=0 partials=12 spills=0 on=0 off=0 pruned=0 sel=0.805",
		"sim=1090131 disk=0 proc=69292 net=1020838 traffic=67864 filter=0 project=0 fetch=12 batch=0 groupagg=0 topk=0 partials=0 spills=4 on=0 off=0 pruned=0 sel=1",
		"sim=1153986 disk=19636 proc=31208 net=1103140 traffic=9763 filter=4 project=4 fetch=0 batch=10 groupagg=0 topk=4 partials=0 spills=0 on=4 off=0 pruned=0 sel=0.79275",
		"sim=724321 disk=10080 proc=13997 net=700242 traffic=646 filter=1 project=0 fetch=0 batch=2 groupagg=0 topk=1 partials=0 spills=0 on=0 off=0 pruned=3 sel=0.004166666666666667",
	},
	"always": {
		"sim=1116974 disk=17583 proc=31494 net=1067894 traffic=19072 filter=4 project=8 fetch=0 batch=9 groupagg=0 topk=0 partials=0 spills=0 on=8 off=0 pruned=0 sel=0.10504166666666667",
		"sim=1600274 disk=30657 proc=56678 net=1512937 traffic=195408 filter=8 project=20 fetch=0 batch=12 groupagg=0 topk=0 partials=0 spills=0 on=20 off=0 pruned=0 sel=0.8125416666666667",
		"sim=1060006 disk=16781 proc=38613 net=1004610 traffic=14009 filter=8 project=0 fetch=0 batch=8 groupagg=8 topk=0 partials=8 spills=0 on=0 off=0 pruned=0 sel=0.3625833333333333",
		"sim=637080 disk=13244 proc=23061 net=600773 traffic=2392 filter=0 project=0 fetch=0 batch=4 groupagg=8 topk=0 partials=8 spills=0 on=0 off=0 pruned=0 sel=1",
		"sim=1148176 disk=11828 proc=29105 net=1107242 traffic=22444 filter=4 project=0 fetch=4 batch=6 groupagg=4 topk=0 partials=12 spills=0 on=0 off=0 pruned=0 sel=0.805",
		"sim=1091841 disk=0 proc=69720 net=1022120 traffic=67864 filter=0 project=0 fetch=12 batch=0 groupagg=0 topk=0 partials=0 spills=4 on=0 off=0 pruned=0 sel=1",
		"sim=1150664 disk=17239 proc=30105 net=1103317 traffic=9763 filter=4 project=4 fetch=0 batch=10 groupagg=0 topk=4 partials=0 spills=0 on=4 off=0 pruned=0 sel=0.79275",
		"sim=725973 disk=9917 proc=15814 net=700238 traffic=646 filter=1 project=0 fetch=0 batch=2 groupagg=0 topk=1 partials=0 spills=0 on=0 off=0 pruned=3 sel=0.004166666666666667",
	},
	"baseline": {
		"sim=1943453 disk=0 proc=97367 net=1846085 traffic=102548 filter=0 project=0 fetch=24 batch=0 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=0 sel=0.10504166666666667",
		"sim=4202005 disk=0 proc=241182 net=3960823 traffic=275308 filter=0 project=0 fetch=60 batch=0 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=0 sel=0.8125416666666667",
		"sim=2032339 disk=0 proc=103834 net=1928504 traffic=87884 filter=0 project=0 fetch=26 batch=0 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=0 sel=0.3625833333333333",
		"sim=1233980 disk=0 proc=64096 net=1169883 traffic=62228 filter=0 project=0 fetch=15 batch=0 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=0 sel=1",
		"sim=1689559 disk=0 proc=68399 net=1621158 traffic=68984 filter=0 project=0 fetch=20 batch=0 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=0 sel=0.805",
		"sim=1489561 disk=0 proc=67680 net=1421881 traffic=68984 filter=0 project=0 fetch=20 batch=0 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=0 sel=1",
		"sim=1927788 disk=0 proc=95203 net=1832584 traffic=102548 filter=0 project=0 fetch=24 batch=0 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=0 sel=0.79275",
		"sim=822858 disk=0 proc=15913 net=806943 traffic=20090 filter=0 project=0 fetch=4 batch=0 groupagg=0 topk=0 partials=0 spills=0 on=0 off=0 pruned=3 sel=0.004166666666666667",
	},
	"fusion, node 8 down": {
		"sim=2406249 disk=47900 proc=25512 net=2332836 traffic=528786 filter=3 project=5 fetch=24 batch=7 groupagg=0 topk=0 partials=0 spills=0 on=5 off=3 pruned=0 sel=0.10504166666666667",
		"sim=4233769 disk=116252 proc=53313 net=4064201 traffic=1135630 filter=5 project=12 fetch=46 batch=10 groupagg=0 topk=0 partials=0 spills=0 on=12 off=8 pruned=0 sel=0.8125416666666667",
		"sim=2410088 disk=68368 proc=35425 net=2306293 traffic=624792 filter=7 project=0 fetch=24 batch=6 groupagg=5 topk=0 partials=5 spills=3 on=0 off=0 pruned=0 sel=0.3625833333333333",
		"sim=1677594 disk=52034 proc=22051 net=1603509 traffic=462353 filter=0 project=0 fetch=18 batch=3 groupagg=5 topk=0 partials=5 spills=3 on=0 off=0 pruned=0 sel=1",
		"sim=2229361 disk=51312 proc=27097 net=2150949 traffic=479655 filter=3 project=0 fetch=24 batch=4 groupagg=2 topk=0 partials=6 spills=2 on=0 off=0 pruned=0 sel=0.805",
		"sim=1985096 disk=80142 proc=0 net=1904954 traffic=502689 filter=0 project=0 fetch=27 batch=0 groupagg=0 topk=0 partials=0 spills=4 on=0 off=0 pruned=0 sel=1",
		"sim=2398577 disk=53579 proc=25904 net=2319092 traffic=522739 filter=3 project=3 fetch=24 batch=7 groupagg=0 topk=2 partials=0 spills=0 on=3 off=1 pruned=0 sel=0.79275",
		"sim=723241 disk=9034 proc=13977 net=700228 traffic=646 filter=1 project=0 fetch=0 batch=2 groupagg=0 topk=1 partials=0 spills=0 on=0 off=0 pruned=3 sel=0.004166666666666667",
	},
	"always, node 8 down": {
		"sim=2406249 disk=47900 proc=25512 net=2332836 traffic=528786 filter=3 project=5 fetch=24 batch=7 groupagg=0 topk=0 partials=0 spills=0 on=5 off=3 pruned=0 sel=0.10504166666666667",
		"sim=3970701 disk=110595 proc=56142 net=3803960 traffic=1137527 filter=5 project=16 fetch=42 batch=10 groupagg=0 topk=0 partials=0 spills=0 on=16 off=4 pruned=0 sel=0.8125416666666667",
		"sim=2415976 disk=71538 proc=34244 net=2310193 traffic=624792 filter=7 project=0 fetch=24 batch=6 groupagg=5 topk=0 partials=5 spills=3 on=0 off=0 pruned=0 sel=0.3625833333333333",
		"sim=1676267 disk=48170 proc=25808 net=1602288 traffic=462353 filter=0 project=0 fetch=18 batch=3 groupagg=5 topk=0 partials=5 spills=3 on=0 off=0 pruned=0 sel=1",
		"sim=2237322 disk=54110 proc=29563 net=2153646 traffic=479655 filter=3 project=0 fetch=24 batch=4 groupagg=2 topk=0 partials=6 spills=2 on=0 off=0 pruned=0 sel=0.805",
		"sim=1985621 disk=79497 proc=0 net=1906123 traffic=502689 filter=0 project=0 fetch=27 batch=0 groupagg=0 topk=0 partials=0 spills=4 on=0 off=0 pruned=0 sel=1",
		"sim=2390405 disk=52026 proc=22386 net=2315991 traffic=522739 filter=3 project=3 fetch=24 batch=7 groupagg=0 topk=2 partials=0 spills=0 on=3 off=1 pruned=0 sel=0.79275",
		"sim=726990 disk=9610 proc=17142 net=700237 traffic=646 filter=1 project=0 fetch=0 batch=2 groupagg=0 topk=1 partials=0 spills=0 on=0 off=0 pruned=3 sel=0.004166666666666667",
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
