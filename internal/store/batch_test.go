package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/fusionstore/fusion/internal/bufpool"
	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/faultnet"
	"github.com/fusionstore/fusion/internal/tcpnet"
	"github.com/fusionstore/fusion/internal/trace"
)

// queryRoundTrips runs one traced query and returns the result plus the
// data-plane round trips the trace recorded: for the whole query, and for
// the filter stage's subtree alone.
func queryRoundTrips(t *testing.T, s *Store, query string) (res *Result, total, filter uint64) {
	t.Helper()
	ctx, sp := trace.Start(context.Background(), "test.query")
	res, err := s.QueryContext(ctx, query)
	sp.End()
	if err != nil {
		t.Fatal(err)
	}
	var sum func(trace.SpanJSON, bool) uint64
	sum = func(n trace.SpanJSON, inFilter bool) uint64 {
		inFilter = inFilter || n.Name == "filter"
		var trips uint64
		if inFilter {
			trips = n.Counters["round_trips"]
		}
		for _, c := range n.Children {
			trips += sum(c, inFilter)
		}
		return trips
	}
	return res, sp.Total(trace.RoundTrips), sum(sp.Snapshot(), false)
}

// pushdownAndBaselineStores builds two simnet deployments of the same
// object: one under opts (a pushdown configuration) and one under
// BaselineOptions — fixed blocks small enough to split chunks, evaluated
// wholly at the coordinator, sharing no node-side operator with the first.
func pushdownAndBaselineStores(t *testing.T, opts Options, data []byte) (push, base *Store) {
	t.Helper()
	mk := func(o Options) *Store {
		s, _ := newSimStore(t, o)
		if _, err := s.Put("obj", data); err != nil {
			t.Fatal(err)
		}
		return s
	}
	baseline := BaselineOptions()
	baseline.FixedBlockSize = 8192
	return mk(opts), mk(baseline)
}

// TestPushdownQueryEquivalence checks that node-side execution is invisible
// to query results across pushdown policies: every configuration must agree
// with coordinator-side evaluation bit for bit.
func TestPushdownQueryEquivalence(t *testing.T) {
	data, _, _ := makeObject(t, 6, 300, 11)
	queries := []string{
		"SELECT * FROM obj WHERE qty < 25",
		"SELECT id, price FROM obj WHERE qty < 10 AND price > 20.0",
		"SELECT count(*), sum(price) FROM obj WHERE flag = 'A'",
		"SELECT min(qty), max(price), avg(price) FROM obj WHERE qty >= 40 OR flag = 'R'",
	}
	for _, policy := range []PushdownPolicy{PushdownAdaptive, PushdownAlways, PushdownNever} {
		opts := fusionTestOptions()
		opts.Pushdown = policy
		p, b := pushdownAndBaselineStores(t, opts, data)
		for _, q := range queries {
			got, err := p.Query(q)
			if err != nil {
				t.Fatalf("%v %q: %v", policy, q, err)
			}
			want, err := b.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := resultKey(got), resultKey(want); g != w {
				t.Fatalf("%v %q: pushdown diverges from baseline:\n--- got ---\n%s--- want ---\n%s",
					policy, q, g, w)
			}
		}
	}
}

// TestQueryRoundTrips is the deterministic dispatch assertion: a small-chunk
// pushdown scan reaches each node in at most one data round trip per stage,
// however many row groups and chunks it touches — the filter stage costs at
// most one frame per node, and so does the projection or aggregate stage.
// Under adaptive pushdown the tasks of a row group whose chunks share its
// conjunction's node ride the filter stage's frames, which the pinned
// adaptive figures hold: round trips in all and in the filter stage, then
// the Filter, Project and GroupAgg sub-ops answered.
func TestQueryRoundTrips(t *testing.T) {
	const rowGroups = 10
	data, _, _ := makeObject(t, rowGroups, 200, 7)
	for _, c := range []struct {
		query string
		// The work the frames carry, per row group: the columns the WHERE
		// clause's conjunction reads (one Filter per node holding some), then
		// projected or aggregated chunks.
		conj           []int
		projects, aggs int
		adaptive       [5]int
	}{
		{query: "SELECT * FROM obj WHERE qty < 25", conj: []int{colQty}, projects: 5, adaptive: [5]int{26, 6, 6, 42, 0}},
		{query: "SELECT SUM(price), AVG(qty) FROM obj WHERE qty > 10 AND price < 50.0", conj: []int{colQty, colPrice}, aggs: 2,
			adaptive: [5]int{15, 8, 8, 0, 20}},
	} {

		opts := fusionTestOptions()
		opts.Pushdown = PushdownAlways
		p, b := pushdownAndBaselineStores(t, opts, data)
		meta, err := p.Meta("obj")
		if err != nil {
			t.Fatal(err)
		}
		filters := 0
		for rg, rgm := range meta.Footer.RowGroups {
			nodes := map[int]bool{}
			for _, ci := range c.conj {
				node, _, _ := chunkLocation(meta, rg, ci, rgm.Chunks[ci])
				nodes[node] = true
			}
			filters += len(nodes)
		}

		res, total, filter := queryRoundTrips(t, p, c.query)
		want, baseTotal, _ := queryRoundTrips(t, b, c.query)
		if g, w := resultKey(res), resultKey(want); g != w {
			t.Fatalf("%q: pushdown diverges from baseline:\n--- got ---\n%s--- want ---\n%s", c.query, g, w)
		}

		// Everything else (meta quorum reads) is control plane and uncounted.
		nodes := uint64(p.client.NumNodes())
		if filter == 0 || filter > nodes {
			t.Fatalf("%q: filter stage took %d data round trips, want 1..%d (one frame per node)", c.query, filter, nodes)
		}
		if total > 2*nodes {
			t.Fatalf("%q: query took %d data round trips, want ≤ %d (one frame per node per stage)", c.query, total, 2*nodes)
		}
		st := res.Stats
		if st.FilterRPCs != filters || st.ProjectRPCs != c.projects*rowGroups ||
			st.GroupAggRPCs != c.aggs*rowGroups || st.FetchRPCs != 0 {
			t.Fatalf("%q: pushed ops: filter %d project %d group-agg %d fetch %d, want %d in all, then %d/%d/0 per row group",
				c.query, st.FilterRPCs, st.ProjectRPCs, st.GroupAggRPCs, st.FetchRPCs, filters, c.projects, c.aggs)
		}
		if uint64(st.BatchRPCs) != total {
			t.Fatalf("%q: BatchRPCs = %d, trace recorded %d round trips", c.query, st.BatchRPCs, total)
		}
		// The baseline pays one round trip per fetched chunk fragment.
		if baseTotal != uint64(want.Stats.FetchRPCs) {
			t.Fatalf("%q: baseline round trips = %d, want %d (one per fetch)", c.query, baseTotal, want.Stats.FetchRPCs)
		}
		a, _ := pushdownAndBaselineStores(t, fusionTestOptions(), data)
		ares, atotal, afilter := queryRoundTrips(t, a, c.query)
		ast := ares.Stats
		if got := [5]int{int(atotal), int(afilter), ast.FilterRPCs, ast.ProjectRPCs, ast.GroupAggRPCs}; got != c.adaptive ||
			resultKey(ares) != resultKey(want) {
			t.Errorf("%q under adaptive pushdown: round trips, filter-stage round trips, Filter, Project, GroupAgg = %v, want %v",
				c.query, got, c.adaptive)
		}
		t.Logf("%q round trips: pushdown %d (filter %d) vs baseline %d; simulated: %v vs %v",
			c.query, total, filter, baseTotal, simLatency(newSimModel(), res).Total, simLatency(newSimModel(), want).Total)
	}
}

// TestFilterCountsChunkOnce: a pushed conjunction counts each distinct chunk
// it reads once in the trace's bytes requested, as the node's frame opens it
// once — the two bounds of a range on qty count the qty chunk once per row
// group, not twice. Projections are not pushed, so the id chunks are fetched,
// each counted once too.
func TestFilterCountsChunkOnce(t *testing.T) {
	const colID = 0
	data, _, _ := makeObject(t, 4, 300, 11)
	opts := fusionTestOptions()
	opts.Pushdown = PushdownNever
	s, _ := newSimStore(t, opts)
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	meta, err := s.Meta("obj")
	if err != nil {
		t.Fatal(err)
	}
	ctx, sp := trace.Start(context.Background(), "test.query")
	res, err := s.QueryContext(ctx, "SELECT id FROM obj WHERE qty >= 10 AND qty < 30")
	sp.End()
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, rgm := range meta.Footer.RowGroups {
		want += rgm.Chunks[colQty].Size + rgm.Chunks[colID].Size
	}
	if rgs := len(meta.Footer.RowGroups); res.Stats.FilterRPCs != rgs || res.Stats.PushdownOff != rgs {
		t.Fatalf("%d filters pushed and %d chunks fetched, want one each per row group (%d)",
			res.Stats.FilterRPCs, res.Stats.PushdownOff, rgs)
	}
	if got := sp.Total(trace.BytesRequested); got != want {
		t.Fatalf("bytes requested %d, want %d (qty and id once per row group)", got, want)
	}
}

// TestBatchedGetRoundTrips checks that a multi-segment Get reaches each node
// in one scatter-gather frame instead of one round trip per block, and
// returns identical bytes.
func TestBatchedGetRoundTrips(t *testing.T) {
	data, _, _ := makeObject(t, 12, 400, 13)
	s, _ := newSimStore(t, fusionTestOptions())
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	ctx, sp := trace.Start(context.Background(), "test.get")
	got, err := s.GetContext(ctx, "obj", 0, 0)
	sp.End()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("Get returned wrong bytes")
	}
	meta, err := s.Meta("obj")
	if err != nil {
		t.Fatal(err)
	}
	blocks := uint64(len(meta.Stripes) * s.opts.Params.K)
	nodes := uint64(s.client.NumNodes())
	if blocks <= nodes {
		t.Fatalf("object too small to exercise batching: %d data blocks over %d nodes", blocks, nodes)
	}
	if rt := sp.Total(trace.RoundTrips); rt > nodes {
		t.Fatalf("Get of %d blocks took %d data round trips over %d nodes, want ≤ 1 per node", blocks, rt, nodes)
	}
}

// TestPooledBuffersNotAliased is the poison-on-put alias check, run under
// -race in CI: with pool poisoning armed, concurrent degraded reads (whose
// reconstructions rent and return survivor shards) and queries (whose nodes
// and coordinator fallback open chunks into rented buffers and release them
// with the frame) must never hand back data that aliases a returned buffer.
// Any use-after-put shows up as 0xDB-corrupted results or as a race report.
// The queries cover every reply form that could carry chunk bytes out of a
// frame: projected strings from plain and dictionary pages, string MIN/MAX,
// string group keys and string top-k keys, pushed to the nodes by one store
// and evaluated by the coordinator fallback of another; projections decode
// into windows of the result column, most of them not at row 0 (four row
// groups).
//
// Over simnet a reply is the node's own memory and has no frame. The loopback
// tcpnet legs are where reply frames are rented and readSegments releases
// them: whole-object and ranged Gets and the same queries with every node up
// (every block read directly, every frame released) and then with one down —
// also with the cache on, where a flight's leader releases the frame whose
// block its followers and the cache were given a copy of; a cached block
// outlives the Get that fetched it; and after a Get cancelled mid-flight,
// whose calls end with it.
func TestPooledBuffersNotAliased(t *testing.T) {
	data, _, _ := makeObject(t, 4, 300, 17)
	queries := []string{
		"SELECT count(*), sum(price) FROM obj WHERE qty < 25",
		"SELECT flag, comment FROM obj WHERE qty < 3",
		"SELECT min(comment), max(comment), min(flag) FROM obj WHERE qty < 40",
		"SELECT flag, COUNT(*), MAX(comment) FROM obj GROUP BY flag",
		"SELECT comment, COUNT(*) FROM obj WHERE qty < 5 GROUP BY comment",
		"SELECT id, comment FROM obj ORDER BY comment DESC LIMIT 5",
		"SELECT id, flag FROM obj WHERE qty > 45 ORDER BY flag LIMIT 3",
	}
	always := fusionTestOptions()
	always.Pushdown = PushdownAlways
	fallback := fusionTestOptions()
	fallback.Layout = LayoutFixed // no pushdown: every chunk is fetched
	configs := map[string]Options{"pushed": always, "adaptive": fusionTestOptions(), "fallback": fallback}

	// The answers, before the pool is poisoned.
	want := make(map[string]string)
	{
		s, _ := newSimStore(t, fusionTestOptions())
		if _, err := s.Put("obj", data); err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			res, err := s.Query(q)
			if err != nil {
				t.Fatalf("%q: %v", q, err)
			}
			want[q] = fmt.Sprint(res.Rows, res.Columns, res.Data, res.AggLabels, res.AggValues)
		}
	}

	prev := bufpool.SetPoison(true)
	defer bufpool.SetPoison(prev)

	// hammer reads the object whole and in part and queries it from several
	// goroutines at once, checking every answer.
	hammer := func(t *testing.T, name string, s *Store) {
		t.Helper()
		const goroutines = 8
		var wg sync.WaitGroup
		errs := make(chan error, goroutines*2)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					got, err := s.Get("obj", 0, 0)
					if err != nil {
						errs <- err
						return
					}
					if !bytes.Equal(got, data) {
						errs <- fmt.Errorf("Get returned corrupted bytes (pool aliasing?)")
						return
					}
					if bufpool.Poisoned(got) {
						errs <- fmt.Errorf("Get returned a poisoned (returned-to-pool) buffer")
						return
					}
					q := queries[(g+i)%len(queries)]
					res, err := s.Query(q)
					if err != nil {
						errs <- err
						return
					}
					// Rendered after more pooled traffic has had the chance to
					// overwrite whatever the result might still reference.
					off, n := uint64(100*g+i), uint64(len(data)/3+i)
					if part, err := s.Get("obj", off, n); err != nil || !bytes.Equal(part, data[off:off+n]) {
						errs <- fmt.Errorf("ranged Get [%d,+%d) returned corrupted bytes (pool aliasing?): %v", off, n, err)
						return
					}
					if got := fmt.Sprint(res.Rows, res.Columns, res.Data, res.AggLabels, res.AggValues); got != want[q] {
						errs <- fmt.Errorf("%s: %q returned a result that differs from the unpoisoned run (pool aliasing?)", name, q)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}

	for name, opts := range configs {
		s, cl := newSimStore(t, opts)
		if _, err := s.Put("obj", data); err != nil {
			t.Fatal(err)
		}
		// A down node forces every covering Get into RS reconstruction, the
		// heaviest pooled path (survivor shards are rented and returned).
		cl.SetDown(0, true)
		hammer(t, name, s)
		cl.SetDown(0, false)
	}

	configs["cached"] = cacheTestOptions()
	for name, opts := range configs {
		net := faultnet.New(newTCPCluster(t, opts.Params.N), 1)
		s, err := New(net, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Put("obj", data); err != nil {
			t.Fatal(err)
		}
		hammer(t, "tcpnet/"+name, s)
		net.SetDown(0, true)
		hammer(t, "tcpnet/"+name+"/node 0 down", s)
	}

	// Cache on: the first Get releases the frames its blocks arrived in (under
	// poisoning a released frame reads 0xDB at once), so what the cache
	// admitted must be a copy — the second Get is served from it.
	{
		s, err := New(newTCPCluster(t, 9), cacheTestOptions())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Put("obj", data); err != nil {
			t.Fatal(err)
		}
		if got, err := s.Get("obj", 0, 0); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("cache-filling Get: %v", err)
		}
		hits := s.CacheStats().Block.Hits
		got, err := s.Get("obj", 0, 0)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("a cached block did not survive the Get that fetched it (err %v)", err)
		}
		if s.CacheStats().Block.Hits == hits {
			t.Fatal("the second Get was not served from the cache: the leg proves nothing")
		}
	}

	// A Get cancelled mid-flight, while two nodes are slow to answer: its
	// calls end with it, and the Gets that follow read clean bytes.
	{
		net := faultnet.New(newTCPCluster(t, 9), 1)
		s, err := New(net, fusionTestOptions())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Put("obj", data); err != nil {
			t.Fatal(err)
		}
		for _, node := range []int{1, 2} {
			net.Add(faultnet.Rule{Node: node, Kind: faultnet.KindAny, Fault: faultnet.FaultSlow, Delay: 30 * time.Millisecond, Count: 1})
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() { // cancel once a slowed call is in flight
			for net.InjectedTotal() == 0 && ctx.Err() == nil {
				time.Sleep(time.Millisecond)
			}
			cancel()
		}()
		if _, err := s.GetContext(ctx, "obj", 0, 0); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Get returned %v, want the context's error", err)
		}
		for i := 0; i < 3; i++ { // spans the time the slowed replies were due
			if got, err := s.Get("obj", 0, 0); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("Get %d after a cancelled one: wrong bytes (err %v)", i, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// newTCPCluster starts n storage nodes over in-memory block stores on loopback
// sockets — the repository benchmark's topology — and returns the client; the
// test's cleanup stops them.
func newTCPCluster(tb testing.TB, n int) *tcpnet.Client {
	tb.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		srv, err := tcpnet.NewServer(cluster.NewNode(i, cluster.NewMemStore()), "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { srv.Close() })
		addrs[i] = srv.Addr()
	}
	client := tcpnet.NewClient(addrs)
	tb.Cleanup(client.Close)
	return client
}
