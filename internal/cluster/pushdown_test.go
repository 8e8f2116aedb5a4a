package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/fusionstore/fusion/internal/bitmap"
	"github.com/fusionstore/fusion/internal/bufpool"
	"github.com/fusionstore/fusion/internal/colenc"
	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/sql"
)

// countingStore counts the chunk reads a node makes of its block store.
type countingStore struct {
	*MemStore
	gets atomic.Int64
}

func (s *countingStore) Get(id string, offset, length uint64) ([]byte, error) {
	s.gets.Add(1)
	return s.MemStore.Get(id, offset, length)
}

// rowGroupFixture is one row group of a lineitem-like table stored on a node,
// every chunk in one block, with the decoded columns for reference.
type rowGroupFixture struct {
	node  *Node
	store *countingStore
	cols  map[string]lpq.ColumnData
	refs  map[string]rpc.ChunkRef
	rows  int
}

// newRowGroupFixture writes rows rows of shipdate (a 2,526-value dictionary),
// quantity, discount, price (plain floats), flag (a 3-string dictionary),
// comment (FSST strings) and rebate (floats with NaN at row 0 and every 97th
// after; its reference is given the NaN min/max a footer written before the
// writer withheld such statistics carries) and stores the chunks on a fresh
// node.
func newRowGroupFixture(t testing.TB, rows int) *rowGroupFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	ship, qty := make([]int64, rows), make([]int64, rows)
	disc, price, rebate := make([]float64, rows), make([]float64, rows), make([]float64, rows)
	flag, comment := make([]string, rows), make([]string, rows)
	for i := 0; i < rows; i++ {
		ship[i] = rng.Int63n(2526)
		qty[i] = 1 + rng.Int63n(50)
		disc[i] = float64(rng.Intn(11)) / 100
		price[i] = float64(qty[i]) * (900 + float64(rng.Intn(200000))/100)
		flag[i] = []string{"A", "N", "R"}[rng.Intn(3)]
		comment[i] = fmt.Sprintf("comment %d of the %d carefully final deposits", rng.Intn(1<<20), i)
		if rebate[i] = disc[i] / 2; i%97 == 0 {
			rebate[i] = math.NaN()
		}
	}
	names := []string{"shipdate", "quantity", "discount", "price", "flag", "comment", "rebate"}
	cols := []lpq.ColumnData{
		lpq.IntColumn(ship), lpq.IntColumn(qty), lpq.FloatColumn(disc),
		lpq.FloatColumn(price), lpq.StringColumn(flag), lpq.StringColumn(comment), lpq.FloatColumn(rebate),
	}
	schema := make([]lpq.Column, len(cols))
	for i := range cols {
		schema[i] = lpq.Column{Name: names[i], Type: cols[i].Type}
	}
	w := lpq.NewWriter(schema, lpq.DefaultWriterOptions())
	if err := w.WriteRowGroup(cols); err != nil {
		t.Fatal(err)
	}
	file, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	f, err := lpq.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	fx := &rowGroupFixture{
		store: &countingStore{MemStore: NewMemStore()},
		cols:  make(map[string]lpq.ColumnData), refs: make(map[string]rpc.ChunkRef), rows: rows,
	}
	fx.node = NewNode(0, fx.store)
	// The whole file is the block: a chunk's file offset is its block offset.
	if err := fx.store.Put("blk", file); err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		m := f.Footer().RowGroups[0].Chunks[i]
		fx.refs[name] = rpc.ChunkRef{BlockID: "blk", Offset: m.Offset, Type: cols[i].Type, Meta: m}
		if fx.cols[name], err = f.ReadChunk(0, i); err != nil {
			t.Fatal(err)
		}
	}
	rebateRef := fx.refs["rebate"]
	if rebateRef.Meta.Stats.Valid {
		t.Fatalf("the writer recorded statistics %+v for a chunk holding NaNs", rebateRef.Meta.Stats)
	}
	rebateRef.Meta.Stats = lpq.Stats{Valid: true, MinF: math.NaN(), MaxF: math.NaN()}
	fx.refs["rebate"] = rebateRef
	return fx
}

// shipped returns a copy of the named column's stored chunk bytes, as a
// coordinator ships them to another node in a GroupAgg's Data.
func (fx *rowGroupFixture) shipped(t testing.TB, name string) []byte {
	t.Helper()
	ref := fx.refs[name]
	raw, err := fx.store.MemStore.Get(ref.BlockID, ref.Offset, ref.Meta.Size)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Clone(raw)
}

func (fx *rowGroupFixture) selection(rng *rand.Rand, percent int) *bitmap.Bitmap {
	sel := bitmap.New(fx.rows)
	for i := 0; i < fx.rows; i++ {
		if rng.Intn(100) < percent {
			sel.Set(i)
		}
	}
	return sel
}

// handled is Handle with the pool poisoned and churned afterwards, so a reply
// that referenced a released chunk buffer would come back as garbage.
func (fx *rowGroupFixture) handled(t testing.TB, req *rpc.Request) *rpc.Response {
	t.Helper()
	gets0, puts0, _ := bufpool.Stats()
	resp := fx.node.Handle(req)
	gets1, puts1, _ := bufpool.Stats()
	if gets1-gets0 != puts1-puts0 {
		t.Fatalf("%v frame rented %d buffers and returned %d", req.Kind, gets1-gets0, puts1-puts0)
	}
	for i := 0; i < 8; i++ {
		b := bufpool.GetLen(256 << 10)
		for j := range b {
			b[j] = 0xAA
		}
		bufpool.Put(b)
	}
	return resp
}

// TestPushedOpsMatchReference: every pushed operator's reply, computed on the
// opened chunk, equals the value-at-a-time computation over the decoded
// column — and still does after the frame released its chunks into a
// poisoned, churned pool (a reply never references a released arena).
func TestPushedOpsMatchReference(t *testing.T) {
	prev := bufpool.SetPoison(true)
	defer bufpool.SetPoison(prev)
	fx := newRowGroupFixture(t, 5000)
	if enc := fx.refs["comment"].Meta.Encoding; enc != colenc.FSST {
		t.Fatalf("the comment chunk is %v: no pushed operator runs over FSST pages", enc)
	}
	rng := rand.New(rand.NewSource(4))
	for _, percent := range []int{0, 1, 50, 100} {
		sel := fx.selection(rng, percent)
		wire := sel.Marshal()
		for name, col := range fx.cols {
			// Project: the selected rows in the chunk's encoding, which gather
			// to the selected values.
			resp := fx.handled(t, &rpc.Request{Kind: rpc.KindProject, Chunk: fx.refs[name], Bitmap: wire})
			if resp.Err != "" || resp.Matches != sel.Count() || len(resp.Data) == 0 || colenc.Encoding(resp.Data[0]) != fx.refs[name].Meta.Encoding {
				t.Fatalf("Project %s at %d%%: %q, %d matches", name, percent, resp.Err, resp.Matches)
			}
			if got, err := gatherReply(lpq.ColumnData{Type: col.Type}, sel.Count(), resp.Data); err != nil || !sameValues(got, SelectRows(col, sel)) {
				t.Fatalf("Project %s at %d%%: the reply gathers to other values (%v)", name, percent, err)
			}
			// An ungrouped aggregate, a GroupAgg with no key: one group of every
			// selected row (none when no row is selected), every state field.
			resp = fx.handled(t, keyless(fx.refs[name], wire, sql.AggMin))
			want := sql.AggState{Kind: sql.AggMin}
			want.AddColumn(SelectRows(col, sel))
			if resp.Err != "" || len(resp.Groups) != min(1, sel.Count()) ||
				len(resp.Groups) == 1 && (len(resp.Groups[0].Key) != 0 || resp.Groups[0].Rows != int64(sel.Count()) || !sameAggState(&resp.Groups[0].Aggs[0], &want)) {
				t.Fatalf("keyless GroupAgg %s at %d%%: %q, %+v vs %+v", name, percent, resp.Err, resp.Groups, want)
			}
			// TopK, both directions.
			for _, desc := range []bool{false, true} {
				resp = fx.handled(t, &rpc.Request{Kind: rpc.KindTopK, Chunk: fx.refs[name], Bitmap: wire, K: 7, Desc: desc, RG: 3})
				tk := sql.NewTopK(7, desc)
				sel.ForEach(func(i int) { tk.Push(literalAt(col, i), 3, int32(i)) })
				if resp.Err != "" || !sameTopRows(resp.TopRows, tk.Rows()) {
					t.Fatalf("TopK %s at %d%% desc=%v: %q, %v vs %v", name, percent, desc, resp.Err, resp.TopRows, tk.Rows())
				}
			}
		}
		// GroupAgg: GROUP BY flag with SUM(price), COUNT(*), MIN(comment), AVG(price).
		groupReq := rpc.Request{
			Kind: rpc.KindGroupAgg, Bitmap: wire, MaxGroups: 100,
			KeyChunks: []rpc.ChunkRef{fx.refs["flag"]},
			ValChunks: []rpc.ChunkRef{fx.refs["price"], {}, fx.refs["comment"], fx.refs["price"]},
			AggKinds:  []sql.AggKind{sql.AggSum, sql.AggCount, sql.AggMin, sql.AggAvg},
		}
		resp := fx.handled(t, &groupReq)
		// The same with price shipped in Data, as from another node: the same
		// partials, and price (read twice, for SUM and AVG) read from no disk.
		price := fx.refs["price"]
		price.BlockID, price.Offset = "", 0
		shipped := groupReq
		shipped.Data = fx.shipped(t, "price")
		shipped.ValChunks = []rpc.ChunkRef{price, {}, fx.refs["comment"], price}
		moved := fx.handled(t, &shipped)
		if moved.Cost.DiskBytes+2*price.Meta.Size != resp.Cost.DiskBytes || moved.Cost.ProcBytes != resp.Cost.ProcBytes {
			t.Fatalf("GroupAgg at %d%%: cost %+v with price shipped, %+v without", percent, moved.Cost, resp.Cost)
		}
		if moved.Cost = resp.Cost; !sameResponse(moved, resp) {
			t.Fatalf("GroupAgg at %d%%: %+v with price shipped, %+v without", percent, *moved, *resp)
		}
		if resp.Err != "" {
			t.Fatal(resp.Err)
		}
		want := referenceGroups(fx, sel)
		if len(resp.Groups) != len(want) {
			t.Fatalf("GroupAgg at %d%%: %d groups, want %d", percent, len(resp.Groups), len(want))
		}
		for i, g := range resp.Groups {
			w := want[g.Key[0].S]
			if w == nil || g.Rows != w.Rows {
				t.Fatalf("GroupAgg at %d%%: group %v has %d rows, want %+v", percent, g.Key, g.Rows, w)
			}
			for ai := range g.Aggs {
				if !sameAggState(&resp.Groups[i].Aggs[ai], &w.Aggs[ai]) {
					t.Fatalf("GroupAgg at %d%%: group %v aggregate %d: %+v vs %+v", percent, g.Key, ai, g.Aggs[ai], w.Aggs[ai])
				}
			}
		}
	}
	// Filter, the six operators, on a dictionary chunk and a plain one.
	for op := sql.OpEq; op <= sql.OpGe; op++ {
		for name, lit := range map[string]sql.Literal{"shipdate": sql.IntLit(400), "price": sql.FloatLit(30000)} {
			resp := fx.handled(t, &rpc.Request{Kind: rpc.KindFilter, Leaves: []rpc.FilterLeaf{{Chunk: fx.refs[name], Op: op, Value: lit}}})
			want, err := sql.EvalCompare(&sql.Compare{Op: op, Value: lit}, fx.cols[name])
			if err != nil || resp.Err != "" {
				t.Fatal(err, resp.Err)
			}
			got, err := bitmap.Unmarshal(resp.Data, fx.rows)
			if err != nil || !reflect.DeepEqual(got.Indexes(), want.Indexes()) || resp.Matches != want.Count() {
				t.Fatalf("Filter %s %v: %d rows, want %d (%v)", name, op, resp.Matches, want.Count(), err)
			}
		}
	}
	// Inside one frame, where the five operators share the chunk they name,
	// each answers as it does alone — on rebate too, whose reference carries
	// NaN statistics (a frame that looked chunks up by the whole reference
	// would never find that one again).
	wire := fx.selection(rng, 50).Marshal()
	for _, name := range []string{"price", "rebate"} {
		ref := fx.refs[name]
		subs := []rpc.Request{
			{Kind: rpc.KindFilter, Leaves: []rpc.FilterLeaf{{Chunk: ref, Op: sql.OpLt, Value: sql.FloatLit(0.03)}}},
			{Kind: rpc.KindProject, Chunk: ref, Bitmap: wire},
			*keyless(ref, wire, sql.AggMax),
			{Kind: rpc.KindTopK, Chunk: ref, Bitmap: wire, K: 7, Desc: true, RG: 3},
			{Kind: rpc.KindGroupAgg, Bitmap: wire, KeyChunks: []rpc.ChunkRef{fx.refs["flag"]},
				ValChunks: []rpc.ChunkRef{ref}, AggKinds: []sql.AggKind{sql.AggSum}},
		}
		fx.store.gets.Store(0)
		batch := fx.handled(t, &rpc.Request{Kind: rpc.KindBatch, Subs: subs})
		if batch.Err != "" || len(batch.Subs) != len(subs) {
			t.Fatalf("frame on %s: %q, %d sub-responses", name, batch.Err, len(batch.Subs))
		}
		if n := fx.store.gets.Load(); n != 2 {
			t.Fatalf("frame on %s made %d block reads, want 2 (%s once, flag once)", name, n, name)
		}
		for i := range subs {
			if alone := fx.handled(t, &subs[i]); alone.Err != "" || !sameResponse(&batch.Subs[i], alone) {
				t.Fatalf("%v on %s: %+v in the frame, %+v alone", subs[i].Kind, name, batch.Subs[i], *alone)
			}
		}
	}
}

// keyless is the GroupAgg of an ungrouped aggregate over one chunk: no key
// chunk, one argument.
func keyless(ref rpc.ChunkRef, sel []byte, kind sql.AggKind) *rpc.Request {
	return &rpc.Request{Kind: rpc.KindGroupAgg, Bitmap: sel, ValChunks: []rpc.ChunkRef{ref}, AggKinds: []sql.AggKind{kind}}
}

// TestGroupAggRefusesReadingNoColumn: a GroupAgg must read some column, or
// nothing says how many rows its selection covers — with no key chunk and
// only COUNTs it is an error reply, not a node panic. The retired Aggregate
// kind is refused as unknown.
func TestGroupAggRefusesReadingNoColumn(t *testing.T) {
	fx := newRowGroupFixture(t, 100)
	sel := bitmap.NewFull(fx.rows).Marshal()
	for _, req := range []*rpc.Request{
		{Kind: rpc.KindGroupAgg, Bitmap: sel},
		{Kind: rpc.KindGroupAgg, Bitmap: sel, ValChunks: make([]rpc.ChunkRef, 2), AggKinds: []sql.AggKind{sql.AggCount, sql.AggCount}},
		{Kind: rpc.KindAggregate, Chunk: fx.refs["price"], Bitmap: sel},
	} {
		if resp := fx.handled(t, req); resp.Err == "" {
			t.Fatalf("%v request %+v answered %+v", req.Kind, req, *resp)
		}
	}
}

// sameResponse compares two operator replies field by field, floats by their
// bits.
func sameResponse(a, b *rpc.Response) bool {
	if a.Err != b.Err || !bytes.Equal(a.Data, b.Data) || a.Matches != b.Matches || a.Cost != b.Cost ||
		!sameTopRows(a.TopRows, b.TopRows) || len(a.Groups) != len(b.Groups) {
		return false
	}
	for i, g := range a.Groups {
		h := b.Groups[i]
		if !reflect.DeepEqual(g.Key, h.Key) || g.Rows != h.Rows || len(g.Aggs) != len(h.Aggs) {
			return false
		}
		for j := range g.Aggs {
			if !sameAggState(&g.Aggs[j], &h.Aggs[j]) {
				return false
			}
		}
	}
	return true
}

func literalAt(col lpq.ColumnData, i int) sql.Literal {
	switch col.Type {
	case lpq.Int64:
		return sql.IntLit(col.Ints[i])
	case lpq.Float64:
		return sql.FloatLit(col.Floats[i])
	default:
		return sql.StringLit(col.Strings[i])
	}
}

// sameTopRows compares ranked rows with float keys by their bits (a NaN key
// equals itself).
func sameTopRows(a, b []sql.TopRow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		ka, kb := a[i].Key, b[i].Key
		ka.F, kb.F = 0, 0
		if a[i].RG != b[i].RG || a[i].Row != b[i].Row || ka != kb ||
			math.Float64bits(a[i].Key.F) != math.Float64bits(b[i].Key.F) {
			return false
		}
	}
	return true
}

func sameAggState(a, b *sql.AggState) bool {
	return a != nil && a.Count == b.Count && a.Init == b.Init && a.IsString == b.IsString &&
		math.Float64bits(a.Sum) == math.Float64bits(b.Sum) &&
		math.Float64bits(a.MinF) == math.Float64bits(b.MinF) &&
		math.Float64bits(a.MaxF) == math.Float64bits(b.MaxF) &&
		a.MinS == b.MinS && a.MaxS == b.MaxS
}

// referenceGroups folds the fixture's selected rows by flag: each group's
// rows picked out one at a time and folded in row order.
func referenceGroups(fx *rowGroupFixture, sel *bitmap.Bitmap) map[string]*sql.GroupPartial {
	members := make(map[string]*bitmap.Bitmap)
	sel.ForEach(func(i int) {
		key := fx.cols["flag"].Strings[i]
		if members[key] == nil {
			members[key] = bitmap.New(fx.rows)
		}
		members[key].Set(i)
	})
	out := make(map[string]*sql.GroupPartial)
	for key, rows := range members {
		g := &sql.GroupPartial{Rows: int64(rows.Count()), Aggs: make([]sql.AggState, 4)}
		g.Aggs[0].AddColumn(SelectRows(fx.cols["price"], rows))
		g.Aggs[1].Count = g.Rows
		g.Aggs[2].AddColumn(SelectRows(fx.cols["comment"], rows))
		g.Aggs[3].AddColumn(SelectRows(fx.cols["price"], rows))
		out[key] = g
	}
	return out
}

// TestConjunctionOpensSharedChunkOnce: TPC-H Q2's filter on one row group — a
// date range (two comparisons on l_shipdate) plus one each on l_discount and
// l_quantity — is one Filter of four leaves. The node reads and opens
// l_shipdate once, charges each distinct chunk once, and replies one bitmap:
// the AND of the four leaves answered alone. The four as one-leaf Filters in
// one batch frame, as leaves under an OR go, read l_shipdate once too, and
// each is charged its own disk and processing bytes.
func TestConjunctionOpensSharedChunkOnce(t *testing.T) {
	fx := newRowGroupFixture(t, 5000)
	leaves := []rpc.FilterLeaf{
		{Chunk: fx.refs["shipdate"], Op: sql.OpGe, Value: sql.IntLit(757)},
		{Chunk: fx.refs["shipdate"], Op: sql.OpLt, Value: sql.IntLit(1480)},
		{Chunk: fx.refs["discount"], Op: sql.OpGe, Value: sql.FloatLit(0.06)},
		{Chunk: fx.refs["quantity"], Op: sql.OpLt, Value: sql.IntLit(25)},
	}
	subs := make([]rpc.Request, len(leaves))
	for i := range leaves {
		subs[i] = rpc.Request{Kind: rpc.KindFilter, Leaves: leaves[i : i+1]}
	}
	// Leaf by leaf, each its own frame: four reads, four opens.
	var alone []*rpc.Response
	want := bitmap.NewFull(fx.rows)
	fx.store.gets.Store(0)
	gets0, _, _ := bufpool.Stats()
	for i := range subs {
		alone = append(alone, fx.node.Handle(&subs[i]))
		bm, err := bitmap.Unmarshal(alone[i].Data, fx.rows)
		if err != nil || want.And(bm) != nil {
			t.Fatalf("leaf %d alone: %v", i, err)
		}
	}
	gets1, _, _ := bufpool.Stats()
	if n := fx.store.gets.Load(); n != 4 {
		t.Fatalf("four separate filters made %d block reads, want 4", n)
	}
	opensAlone := gets1 - gets0

	fx.store.gets.Store(0)
	conj := fx.handled(t, &rpc.Request{Kind: rpc.KindFilter, Leaves: leaves})
	if n := fx.store.gets.Load(); n != 3 {
		t.Fatalf("the conjunction made %d block reads, want 3 (l_shipdate once)", n)
	}
	got, err := bitmap.Unmarshal(conj.Data, fx.rows)
	if err != nil || !reflect.DeepEqual(got.Indexes(), want.Indexes()) || conj.Matches != want.Count() {
		t.Fatalf("the conjunction selects %d rows, the AND of its leaves %d (%v)", conj.Matches, want.Count(), err)
	}
	var distinct rpc.Cost
	for _, i := range []int{0, 2, 3} {
		distinct.Add(alone[i].Cost)
	}
	if conj.Cost != distinct {
		t.Fatalf("the conjunction is charged %+v, its three chunks %+v", conj.Cost, distinct)
	}

	fx.store.gets.Store(0)
	gets0, puts0, _ := bufpool.Stats()
	resp := fx.node.Handle(&rpc.Request{Kind: rpc.KindBatch, Subs: subs})
	gets1, puts1, _ := bufpool.Stats()
	if resp.Err != "" || len(resp.Subs) != len(subs) {
		t.Fatalf("batch: %q, %d sub-responses", resp.Err, len(resp.Subs))
	}
	if n := fx.store.gets.Load(); n != 3 {
		t.Fatalf("the frame made %d block reads, want 3 (l_shipdate once)", n)
	}
	// An open rents a buffer only to decompress into: the second l_shipdate
	// open the frame saves shows here when the writer kept that chunk's Snappy.
	saved := uint64(0)
	if fx.refs["shipdate"].Meta.Compressed {
		saved = 1
	}
	if opens := gets1 - gets0; opens != opensAlone-saved || puts1-puts0 != opens {
		t.Fatalf("the frame rented %d buffers (returned %d), want %d fewer than the %d of four separate opens",
			opens, puts1-puts0, saved, opensAlone)
	}
	var sum rpc.Cost
	for i := range subs {
		if resp.Subs[i].Err != "" || !bytes.Equal(resp.Subs[i].Data, alone[i].Data) || resp.Subs[i].Matches != alone[i].Matches {
			t.Fatalf("sub-op %d answers differently inside the frame: %q", i, resp.Subs[i].Err)
		}
		if resp.Subs[i].Cost != alone[i].Cost || resp.Subs[i].Cost.DiskBytes != leaves[i].Chunk.Meta.Size {
			t.Fatalf("sub-op %d is charged %+v in the frame, %+v alone", i, resp.Subs[i].Cost, alone[i].Cost)
		}
		sum.Add(resp.Subs[i].Cost)
	}
	if resp.Cost != sum {
		t.Fatalf("frame cost %+v, sub-ops sum to %+v", resp.Cost, sum)
	}
}

// TestFrameHoldsOneChunkAtATime: a chunk is released as soon as its last use
// in the frame ends, so a long frame over distinct chunks holds one buffer at
// a time, and a failing sub-op neither leaks a chunk nor disturbs its
// neighbours.
func TestFrameHoldsOneChunkAtATime(t *testing.T) {
	fx := newRowGroupFixture(t, 5000)
	bad := fx.refs["price"]
	bad.Meta.CRC++
	sel := bitmap.NewFull(fx.rows).Marshal()
	sum := func(ref rpc.ChunkRef) rpc.Request { return *keyless(ref, sel, sql.AggSum) }
	subs := []rpc.Request{
		sum(fx.refs["price"]),
		sum(bad),
		sum(fx.refs["comment"]),
		{Kind: rpc.KindProject, Chunk: fx.refs["price"], Bitmap: []byte("not a bitmap")},
		sum(fx.refs["shipdate"]),
		sum(rpc.ChunkRef{BlockID: "missing"}),
		sum(fx.refs["price"]),
	}
	// Count, by hand, what the frame's accounting says is open after each
	// sub-op: dispatch is what handleBatch loops over.
	req := &rpc.Request{Kind: rpc.KindBatch, Subs: subs}
	f := newFrame(fx.node, req)
	wantErr := []bool{false, true, false, true, false, true, false}
	for i := range subs {
		resp := fx.node.dispatch(f, &subs[i])
		if (resp.Err != "") != wantErr[i] {
			t.Fatalf("sub-op %d: error %q, want error %v", i, resp.Err, wantErr[i])
		}
		// price is named three more times after its first use, so it stays;
		// nothing else may.
		price := fx.refs["price"]
		for key := range f.chunks {
			if key != keyOf(&price) || i == len(subs)-1 {
				t.Fatalf("after sub-op %d the frame still holds %s+%d", i, key.blockID, key.offset)
			}
		}
	}
	f.release()
}

// TestPushedFilterRejectsAllocationBomb: the 26-byte chunk whose run-length
// page declares 2^36 rows, arriving as a pushed filter — which used to kill
// the node in make([]uint64, 0, 2^36) — is an error reply after a negligible
// allocation, whatever the request's metadata claims.
func TestPushedFilterRejectsAllocationBomb(t *testing.T) {
	bomb := []byte{byte(colenc.Dict), 1}
	bomb = colenc.PutInt64s(bomb, []int64{7})
	bomb = append(bomb, 1) // one page
	bomb = binary.AppendUvarint(bomb, 1<<36)
	bomb = append(bomb, byte(colenc.RLEEnc), 7)
	bomb = binary.AppendUvarint(bomb, 1<<36)
	bomb = append(bomb, 0)
	if len(bomb) != 26 {
		t.Fatalf("bomb is %d bytes, want 26", len(bomb))
	}
	node := NewNode(0, NewMemStore())
	if err := node.Blocks.Put("blk", bomb); err != nil {
		t.Fatal(err)
	}
	for _, rows := range []int{1 << 36, lpq.MaxChunkRows, 10} {
		ref := rpc.ChunkRef{BlockID: "blk", Type: lpq.Int64, Meta: lpq.ChunkMeta{
			Size: uint64(len(bomb)), NumValues: rows, CRC: crc32.ChecksumIEEE(bomb),
		}}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp := node.Handle(&rpc.Request{Kind: rpc.KindFilter, Leaves: []rpc.FilterLeaf{{Chunk: ref, Op: sql.OpEq, Value: sql.IntLit(7)}}})
		runtime.ReadMemStats(&after)
		if resp.Err == "" {
			t.Fatalf("metadata claiming %d rows: the bomb was filtered without error", rows)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("metadata claiming %d rows: rejecting the bomb allocated %d bytes, want < 1 MiB", rows, grew)
		}
	}
}

// TestProjectReplyStringsShareOneAllocation: the strings gathered from a
// projection reply are sliced from one backing copy — not one allocation per
// value — and do not alias the reply buffer, which over tcpnet is pooled.
func TestProjectReplyStringsShareOneAllocation(t *testing.T) {
	vals := make([]string, 2000)
	for i := range vals {
		vals[i] = fmt.Sprintf("value number %d", i)
	}
	payload := replyOf(t, lpq.StringColumn(vals), nil)
	if enc := colenc.Encoding(payload[0]); enc != colenc.FSST {
		t.Fatalf("the strings replied as %v, not FSST code strings", enc)
	}
	col := lpq.MakeColumn(lpq.String, len(vals))
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := gatherReply(col.Window(0, len(vals)), len(vals), payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6 {
		t.Fatalf("gathering %d strings into their window allocated %.0f times, want six: opening the reply, one backing string and a length list", len(vals), allocs)
	}
	col, err := gatherReply(lpq.ColumnData{Type: lpq.String}, len(vals), payload)
	if err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		payload[i] = 0xDB
	}
	if !reflect.DeepEqual(col.Strings, vals) {
		t.Fatal("gathered strings alias the payload")
	}
}

// TestFrameParsesRowGroupSelectionOnce: the sub-ops of one row group carry the
// same selection bytes, and a frame parses them once. Looking up the selection
// of each of six projections — their bytes equal, not shared, as the wire
// decoder hands them over — allocates what one bitmap.Unmarshal does; a
// different selection is parsed anew; and the handled frame's six replies
// gather to the selected rows.
func TestFrameParsesRowGroupSelectionOnce(t *testing.T) {
	fx := newRowGroupFixture(t, 5000)
	rng := rand.New(rand.NewSource(9))
	sel := fx.selection(rng, 50)
	wire := sel.Marshal()
	names := []string{"shipdate", "quantity", "discount", "price", "flag", "comment"}
	req := &rpc.Request{Kind: rpc.KindBatch}
	for _, name := range names {
		req.Subs = append(req.Subs, rpc.Request{Kind: rpc.KindProject, Chunk: fx.refs[name], Bitmap: bytes.Clone(wire)})
	}
	f := newFrame(fx.node, req)
	chunks := make([]*lpq.Chunk, len(names))
	for i := range req.Subs {
		ch, _, err := f.open(req.Subs[i].Chunk)
		if err != nil {
			t.Fatal(err)
		}
		chunks[i] = ch
	}
	parse := testing.AllocsPerRun(20, func() {
		if _, err := bitmap.Unmarshal(wire, fx.rows); err != nil {
			t.Fatal(err)
		}
	})
	lookups := testing.AllocsPerRun(20, func() {
		f.sel = nil
		for i := range req.Subs {
			if _, _, err := f.selection(&req.Subs[i], chunks[i].NumRows()); err != nil {
				t.Fatal(err)
			}
		}
	})
	if parse == 0 || lookups != parse {
		t.Fatalf("six lookups of one selection allocated %.0f times, one parse %.0f", lookups, parse)
	}
	other := fx.selection(rng, 10)
	if bm, _, err := f.selection(&rpc.Request{Kind: rpc.KindProject, Bitmap: other.Marshal()}, chunks[0].NumRows()); err != nil || bm.Count() != other.Count() {
		t.Fatalf("a second selection came back with %d rows, want %d (%v)", bm.Count(), other.Count(), err)
	}
	f.release()

	resp := fx.handled(t, req)
	for i, name := range names {
		got, err := gatherReply(lpq.ColumnData{Type: fx.cols[name].Type}, sel.Count(), resp.Subs[i].Data)
		if err != nil || !sameValues(got, SelectRows(fx.cols[name], sel)) {
			t.Fatalf("%s: the frame's reply gathers to other values (%v, %q)", name, err, resp.Subs[i].Err)
		}
	}
}

// sameValues compares two columns value for value, floats by their bits.
func sameValues(a, b lpq.ColumnData) bool {
	if a.Type != b.Type || a.Len() != b.Len() {
		return false
	}
	for i := range a.Floats {
		if math.Float64bits(a.Floats[i]) != math.Float64bits(b.Floats[i]) {
			return false
		}
	}
	return a.Len() == 0 || a.Type == lpq.Float64 || reflect.DeepEqual(a, b)
}

// TestBlockOpsGetNoFrame: a request that names no chunk — the whole write
// path, every block read — gets a nil frame: the pushdown machinery costs a
// block operation no allocation.
func TestBlockOpsGetNoFrame(t *testing.T) {
	node := NewNode(0, NewMemStore())
	if err := node.Blocks.Put("blk", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	get := &rpc.Request{Kind: rpc.KindGetBlock, BlockID: "blk"}
	batch := &rpc.Request{Kind: rpc.KindBatch, Subs: []rpc.Request{*get, *get}}
	for _, req := range []*rpc.Request{{Kind: rpc.KindPing}, get, batch} {
		if f := newFrame(node, req); f != nil {
			t.Fatalf("%v request got a frame", req.Kind)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { node.Handle(&rpc.Request{Kind: rpc.KindPing}) }); allocs > 1 {
		t.Fatalf("a ping allocates %.0f times, want only its response", allocs)
	}
}

// TestFloatDictionaryKeepsBitPatterns writes, through the real writer, a float
// column the dictionary encoder takes — +0, −0, two NaNs, 1.5 and −0 again,
// repeated — and reads it back three ways: every row gathered from the opened
// chunk, a selection gathered into a window that does not start at row 0, and
// a pushed KindProject. Each value must come back with its own bit pattern (a
// dictionary keyed by float64 value hands −0 back as +0, or the other way
// round, whichever came first) and the dictionary must hold one NaN, not one
// per occurrence (NaN != NaN).
func TestFloatDictionaryKeepsBitPatterns(t *testing.T) {
	negZero := math.Copysign(0, -1)
	pattern := []float64{0, negZero, math.NaN(), math.NaN(), 1.5, negZero}
	vals := make([]float64, 0, 600)
	for len(vals) < cap(vals) {
		vals = append(vals, pattern...)
	}
	w := lpq.NewWriter([]lpq.Column{{Name: "v", Type: lpq.Float64}}, lpq.DefaultWriterOptions())
	if err := w.WriteRowGroup([]lpq.ColumnData{lpq.FloatColumn(vals)}); err != nil {
		t.Fatal(err)
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	f, err := lpq.Open(data)
	if err != nil {
		t.Fatal(err)
	}
	meta := f.Footer().RowGroups[0].Chunks[0]
	raw, err := f.ChunkBytes(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := lpq.OpenChunk(lpq.Float64, meta, raw)
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Release()
	dict, isDict := ch.Dict()
	if !isDict {
		t.Fatal("the writer did not dictionary-encode the column: the test needs a longer one")
	}
	nans := 0
	for _, v := range dict.Floats {
		if v != v {
			nans++
		}
	}
	if len(dict.Floats) != 4 || nans != 1 {
		t.Fatalf("dictionary %v: want +0, -0, one NaN and 1.5", dict.Floats)
	}
	sameBits := func(what string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: value %d reads back as %x, written as %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
	all, err := ch.Gather(nil)
	if err != nil {
		t.Fatal(err)
	}
	sameBits("Gather of every row", all.Floats, vals)

	// Every third row, into rows [5, 5+n) of a longer column.
	bm := bitmap.New(len(vals))
	var picked []float64
	for i := 0; i < len(vals); i += 3 {
		bm.Set(i)
		picked = append(picked, vals[i])
	}
	col := make([]float64, len(picked)+9)
	for i := range col {
		col[i] = 7
	}
	win, err := ch.AppendGather(lpq.ColumnData{Type: lpq.Float64, Floats: col[5 : 5 : 5+len(picked)]}, bm)
	if err != nil {
		t.Fatal(err)
	}
	sameBits("AppendGather's result", win.Floats, picked)
	sameBits("the window's rows of the column", col[5:5+len(picked)], picked)
	sameBits("the rows before the window", col[:5], []float64{7, 7, 7, 7, 7})
	sameBits("the rows after the window", col[5+len(picked):], []float64{7, 7, 7, 7})

	node := NewNode(0, NewMemStore())
	if err := node.Blocks.Put("blk", raw); err != nil {
		t.Fatal(err)
	}
	resp := node.Handle(&rpc.Request{
		Kind: rpc.KindProject, Bitmap: bm.Marshal(),
		Chunk: rpc.ChunkRef{BlockID: "blk", Type: lpq.Float64, Meta: meta},
	})
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	pushed, err := gatherReply(lpq.ColumnData{Type: lpq.Float64}, len(picked), resp.Data)
	if err != nil {
		t.Fatal(err)
	}
	sameBits("pushed KindProject", pushed.Floats, picked)
}
