package store

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"

	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/simnet"
	"github.com/fusionstore/fusion/internal/sql"
	"github.com/fusionstore/fusion/internal/tpch"
)

// sumAvg3Leaf is the benchmark's three-leaf SUM/AVG template.
const sumAvg3Leaf = "SELECT SUM(l_extendedprice), AVG(l_discount) FROM lineitem " +
	"WHERE l_shipdate < 400 AND l_quantity < 10 AND l_discount >= 0.05"

// fusedTap counts the sub-ops that carry a conjunction as their selection
// (fused: a Project or GroupAgg with Leaves) and the declined replies that
// carry the selection, and with decline set turns every fused projection a
// node sent into a decline: the reply drops its rows, and the first of a
// conjunction's replies in the frame carries the selection, which the tap
// asks the node for with a Filter of the same leaves unless a Filter of the
// frame did.
type fusedTap struct {
	cluster.Client
	mu             sync.Mutex
	decline        bool
	fused, carried int
}

func (c *fusedTap) Call(node int, req *rpc.Request) (*rpc.Response, error) {
	resp, err := c.Client.Call(node, req)
	if err != nil || req.Kind != rpc.KindBatch {
		return resp, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var sent []rpc.FilterLeaf // the conjunction whose selection a reply of the frame carried
	for i := range req.Subs {
		sub, r := &req.Subs[i], &resp.Subs[i]
		if sub.Kind == rpc.KindFilter && r.Err == "" {
			sent = sub.Leaves
		}
		if len(sub.Leaves) == 0 || sub.Kind == rpc.KindFilter {
			continue
		}
		c.fused++
		if sub.Kind != rpc.KindProject || r.Err != "" {
			continue
		}
		if r.Size == 0 && c.decline {
			r.Size, r.Data = uint64(len(r.Data)), nil
			if !rpc.SameSlice(sent, sub.Leaves) {
				f, err := c.Client.Call(node, &rpc.Request{Kind: rpc.KindFilter, Leaves: sub.Leaves})
				if err == nil && f.Err == "" {
					r.Data, sent = f.Data, sub.Leaves
				}
			}
		}
		if r.Size > 0 && len(r.Data) > 0 {
			c.carried++
		}
	}
	return resp, err
}

func (c *fusedTap) take() (fused, carried int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fused, carried = c.fused, c.carried
	c.fused, c.carried = 0, 0
	return
}

// smallLineitem is a lineitem of 4 row groups of 5,000 rows: the default's
// columns, encodings and placement rules at a size a race-detector run
// repeats quickly.
func smallLineitem(t testing.TB) []byte {
	t.Helper()
	data, err := tpch.Generate(tpch.Config{RowGroups: 4, RowsPerGroup: 5000, Seed: 7, Writer: lpq.DefaultWriterOptions()})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// chunkNode is the node holding column ci's chunk of row group rg, and the
// block and range of its bytes there.
func chunkNode(t testing.TB, s *Store, meta *ObjectMeta, rg, ci int) (node int, id string, off, n uint64) {
	t.Helper()
	ch := meta.Footer.RowGroups[rg].Chunks[ci]
	seg := s.segments(meta, ch.Offset, ch.Size)[0]
	stripe := meta.Stripes[seg.stripe]
	return stripe.Nodes[seg.bin], stripe.BlockIDs[seg.bin], seg.off, seg.length
}

// TestFusedStageEquivalenceMatrix runs the queries a fusion plans differently
// — and those it must plan as before — over a small lineitem, under faults
// that hit every fallback of a fused row group, at one query worker and at
// eight, and every result must equal the baseline store's exactly. The faults,
// each in row group 0 of the query: the node of the WHERE clause's first
// column down (the conjunction's frame is lost), the node of the first
// column read down, that chunk rotten on its node (its fused sub-op fails),
// and every fused projection declined (fusedTap). Fused sub-ops must have
// been sent, with no fault and with every projection declined.
func TestFusedStageEquivalenceMatrix(t *testing.T) {
	data := smallLineitem(t)
	queries := []string{
		tpch.MicrobenchQuery("l_extendedprice", 0.01),
		tpch.Q1(),
		tpch.Q2(),
		sumAvg3Leaf,
		tpch.MicrobenchQuery("l_comment", 0.5),
		tpch.MicrobenchQuery("l_extendedprice", 0.9),
		"SELECT l_orderkey, l_tax FROM lineitem WHERE l_quantity < 3 OR l_discount > 0.09",
		"SELECT l_extendedprice FROM lineitem WHERE NOT l_shipdate >= 100",
		"SELECT l_orderkey, l_discount FROM lineitem WHERE l_shipdate < 300 AND l_quantity <= 50",
		"SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_shipdate < 3 AND l_quantity > 45",
		"SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_shipdate < 100 LIMIT 7",
		"SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_shipdate < 50 ORDER BY l_extendedprice DESC",
	}
	base, _ := newSimStore(t, BaselineOptions())
	if _, err := base.Put("lineitem", data); err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		res, err := base.Query(q)
		if err != nil {
			t.Fatalf("baseline %q: %v", q, err)
		}
		want[i] = resultKey(res)
	}
	for _, workers := range []int{1, 8} {
		opts := fusionTestOptions()
		opts.QueryWorkers = workers
		cl := simnet.New(simnet.DefaultConfig())
		tap := &fusedTap{Client: cl}
		s, err := New(tap, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Put("lineitem", data); err != nil {
			t.Fatal(err)
		}
		meta, err := s.Meta("lineitem")
		if err != nil {
			t.Fatal(err)
		}
		colIdx := map[string]int{}
		for i, c := range meta.Footer.Columns {
			colIdx[c.Name] = i
		}
		fused, declined := 0, 0 // with no fault, and declined by the tap
		for i, q := range queries {
			parsed, err := sql.Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			where, read := colIdx[parsed.FilterColumns()[0]], colIdx[parsed.ProjectionColumns()[0]]
			check := func(fault string) {
				t.Helper()
				res, err := s.Query(q)
				if err != nil {
					t.Fatalf("%d workers, %s: %q: %v", workers, fault, q, err)
				}
				if got := resultKey(res); got != want[i] {
					t.Fatalf("%d workers, %s: %q diverges from the baseline:\n--- got ---\n%.400s\n--- want ---\n%.400s",
						workers, fault, q, got, want[i])
				}
			}
			tap.take()
			check("no fault")
			f, _ := tap.take()
			fused += f
			for _, fault := range []struct {
				name string
				ci   int
			}{{"conjunction's node down", where}, {"read chunk's node down", read}} {
				node, _, _, _ := chunkNode(t, s, meta, 0, fault.ci)
				cl.SetDown(node, true)
				check(fmt.Sprintf("%s (node %d)", fault.name, node))
				cl.SetDown(node, false)
			}
			node, id, off, n := chunkNode(t, s, meta, 0, read)
			bs := cl.Node(node).Blocks
			orig, err := bs.Get(id, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			orig = bytes.Clone(orig) // a block read from a store is read-only
			rotten := bytes.Clone(orig)
			rotten[off+n/2] ^= 0x55
			if err := bs.Put(id, rotten); err != nil {
				t.Fatal(err)
			}
			check("read chunk rotten")
			if err := bs.Put(id, orig); err != nil {
				t.Fatal(err)
			}
			tap.decline = true
			tap.take()
			check("every fused projection declined")
			tap.decline = false
			f, _ = tap.take()
			declined += f
		}
		if fused == 0 || declined == 0 {
			t.Fatalf("%d workers: %d fused sub-ops sent, %d declined: the matrix tests nothing", workers, fused, declined)
		}
	}
}

// TestDeclinedProjectionIsFetched: a fused projection the node declined is
// served by the fetch path — the chunk fetched and filtered by the selection
// the decline carried — and the query returns exactly the baseline's result.
// micro_price at 1% projects l_extendedprice over l_shipdate, which share a
// node in row group 3: every fused projection is declined (fusedTap), so each
// is fetched, and where no Filter went the decline carries the selection:
// no WHERE chunk is fetched.
func TestDeclinedProjectionIsFetched(t *testing.T) {
	data := smallLineitem(t)
	base, _ := newSimStore(t, BaselineOptions())
	if _, err := base.Put("lineitem", data); err != nil {
		t.Fatal(err)
	}
	query := tpch.MicrobenchQuery("l_extendedprice", 0.01)
	want, err := base.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	cl := simnet.New(simnet.DefaultConfig())
	tap := &fusedTap{Client: cl, decline: true}
	s, err := New(tap, fusionTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("lineitem", data); err != nil {
		t.Fatal(err)
	}
	tap.take()
	res, err := s.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultKey(res), resultKey(want); got != want {
		t.Fatalf("declined projections diverge from the baseline:\n--- got ---\n%.400s\n--- want ---\n%.400s", got, want)
	}
	fused, carried := tap.take()
	st := res.Stats
	if fused == 0 || st.PushdownOff < fused || st.FetchRPCs != st.PushdownOff {
		t.Fatalf("%d fused projections declined, %d chunks fetched for projection, %d fetches", fused, st.PushdownOff, st.FetchRPCs)
	}
	if carried == 0 {
		t.Fatalf("%d declines carried the selection, of %d", carried, fused)
	}
}

// TestFusedRowGroupsSendNoSelection pins where a fusion saves, on the default
// lineitem: for Q2 and the three-leaf SUM/AVG, a row group whose WHERE
// conjunction and read columns all sit on one node is answered by that node's
// one filter-stage frame — its projections or aggregates ride the
// conjunction, no Filter goes, no bitmap comes back and none goes out again —
// and the projection stage sends it nothing.
func TestFusedRowGroupsSendNoSelection(t *testing.T) {
	data, err := tpch.Generate(tpch.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cl := simnet.New(simnet.DefaultConfig())
	tap := &stageTap{Client: cl}
	s, err := New(tap, FusionOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("lineitem", data); err != nil {
		t.Fatal(err)
	}
	meta, err := s.Meta("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		query string
		where []int
		read  []int
	}{
		{tpch.Q2(), []int{tpch.ColShipDate, tpch.ColDiscount, tpch.ColQuantity}, []int{tpch.ColExtendedPrice, tpch.ColDiscount}},
		{sumAvg3Leaf, []int{tpch.ColShipDate, tpch.ColQuantity, tpch.ColDiscount}, []int{tpch.ColExtendedPrice, tpch.ColDiscount}},
	} {
		// The row groups whose columns share one node.
		colocated := map[int]int{} // row group → its node
		for rg := range meta.Footer.RowGroups {
			nodes := map[int]bool{}
			for _, ci := range append(append([]int(nil), c.where...), c.read...) {
				node, _, _, _ := chunkNode(t, s, meta, rg, ci)
				nodes[node] = true
			}
			if len(nodes) == 1 {
				for n := range nodes {
					colocated[rg] = n
				}
			}
		}
		if len(colocated) < 5 {
			t.Fatalf("%q: %d row groups of 10 have their columns on one node, the placement this pins had 8", c.query, len(colocated))
		}
		tap.reset()
		if _, err := s.Query(c.query); err != nil {
			t.Fatal(err)
		}
		frames := map[int]int{} // frames carrying a co-located row group's sub-ops, by row group
		for _, f := range tap.frames {
			in := map[int]bool{}
			for i := range f.req.Subs {
				sub, r := &f.req.Subs[i], &f.resp.Subs[i]
				for _, rg := range subRowGroups(meta, sub) {
					node, ok := colocated[rg]
					if !ok {
						continue
					}
					in[rg] = true
					if sub.Kind == rpc.KindFilter || len(sub.Leaves) == 0 || len(sub.Bitmap) > 0 || f.node != node || r.Size > 0 {
						t.Fatalf("%q: row group %d, co-located on node %d, sent a %v to node %d with %d leaves and a %d-byte bitmap, declined: %v",
							c.query, rg, node, sub.Kind, f.node, len(sub.Leaves), len(sub.Bitmap), r.Size > 0)
					}
				}
			}
			for rg := range in {
				frames[rg]++
			}
		}
		for rg := range colocated {
			if frames[rg] != 1 {
				t.Fatalf("%q: co-located row group %d rode %d frames, want 1", c.query, rg, frames[rg])
			}
		}
	}
}

// subRowGroups is the row groups whose chunks a sub-op reads: the one its RG
// names where it carries a conjunction, else those of the chunks or block
// ranges it names.
func subRowGroups(meta *ObjectMeta, sub *rpc.Request) []int {
	if sub.Kind == rpc.KindFilter || len(sub.Leaves) > 0 {
		return []int{int(sub.RG)}
	}
	var out []int
	for rg, rgm := range meta.Footer.RowGroups {
		for ci, ch := range rgm.Chunks {
			_, ref, _ := chunkLocation(meta, rg, ci, ch)
			hit := ref.BlockID == sub.Chunk.BlockID && ref.Offset == sub.Chunk.Offset
			for _, v := range sub.ValChunks {
				hit = hit || ref.BlockID == v.BlockID && ref.Offset == v.Offset
			}
			end := sub.Offset + sub.Length
			hit = hit || sub.Kind == rpc.KindGetBlock && ref.BlockID == sub.BlockID &&
				ref.Offset < end && sub.Offset < ref.Offset+ch.Size
			if hit && !slices.Contains(out, rg) {
				out = append(out, rg)
			}
		}
	}
	return out
}

// stageTap records every batch frame a store sends and its reply.
type stageTap struct {
	cluster.Client
	mu     sync.Mutex
	frames []tappedFrame
}

type tappedFrame struct {
	node int
	req  rpc.Request
	resp *rpc.Response
}

func (c *stageTap) Call(node int, req *rpc.Request) (*rpc.Response, error) {
	resp, err := c.Client.Call(node, req)
	if err == nil && req.Kind == rpc.KindBatch {
		c.mu.Lock()
		c.frames = append(c.frames, tappedFrame{node, *req, resp})
		c.mu.Unlock()
	}
	return resp, err
}

func (c *stageTap) reset() {
	c.mu.Lock()
	c.frames = nil
	c.mu.Unlock()
}
