package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"github.com/fusionstore/fusion/internal/bitmap"
	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/sql"
)

// FuzzNodeRequest decodes arbitrary bytes as a request frame and hands what
// decodes to a node whose block store holds a real row group — the bytes a
// node parses off the wire, chunks shipped in a GroupAgg's Data among them.
// The node must answer with an error or a well-formed reply (one that encodes
// and decodes again, and for a batch one sub-response per sub-request), and
// never panic. Each input gets a fresh node, so no input's writes reach the
// next. The seeds: a genuine GroupAgg whose key chunk is shipped, then the
// same with Data truncated, the shipped Offset beyond Data, one shipped byte
// flipped (a CRC mismatch), the zero reference as the key, no key (an
// ungrouped aggregate), no key with only a COUNT (a fold that reads no
// column), and COUNT by the shipped key alone (no chunk of the node's
// blocks, so nothing but the selection in the frame); and all eight in one
// batch. Then multi-block prepare frames: one
// whose middle block fails its CRC, one naming a block twice, a prepare with
// no sub-blocks, and one of more than MaxBatchOps sub-blocks. Then the
// Filters of several leaves (filterRequests), and the Project and GroupAgg
// whose selection is a conjunction, alone, in a frame back-referencing its
// Filter's leaves, and in one whose first sub-op back-references nothing
// (fusedFrames).
func FuzzNodeRequest(f *testing.F) {
	fx := newRowGroupFixture(f, 300)
	file, err := fx.store.MemStore.Get("blk", 0, 0)
	if err != nil {
		f.Fatal(err)
	}
	flag := fx.refs["flag"]
	flag.BlockID, flag.Offset = "", 0
	genuine := rpc.Request{
		Kind: rpc.KindGroupAgg, Bitmap: bitmap.NewFull(fx.rows).Marshal(), MaxGroups: 100,
		Data:      fx.shipped(f, "flag"),
		KeyChunks: []rpc.ChunkRef{flag},
		ValChunks: []rpc.ChunkRef{fx.refs["price"], {}},
		AggKinds:  []sql.AggKind{sql.AggSum, sql.AggCount},
	}
	if resp := fx.node.Handle(&genuine); resp.Err != "" || len(resp.Groups) != 3 {
		f.Fatalf("the genuine GroupAgg is answered %q with %d groups, want 3", resp.Err, len(resp.Groups))
	}
	truncated, beyond, flipped, zeroKey, keyless, noColumn := genuine, genuine, genuine, genuine, genuine, genuine
	truncated.Data = genuine.Data[:len(genuine.Data)/2]
	beyond.KeyChunks = []rpc.ChunkRef{flag}
	beyond.KeyChunks[0].Offset = uint64(len(genuine.Data)) + 1
	flipped.Data = bytes.Clone(genuine.Data)
	flipped.Data[len(flipped.Data)/2] ^= 0x10
	zeroKey.KeyChunks = []rpc.ChunkRef{{}}
	keyless.KeyChunks, keyless.Data = nil, nil
	noColumn.KeyChunks, noColumn.Data = nil, nil
	noColumn.ValChunks, noColumn.AggKinds = []rpc.ChunkRef{{}}, []sql.AggKind{sql.AggCount}
	if resp := fx.node.Handle(&keyless); resp.Err != "" || len(resp.Groups) != 1 {
		f.Fatalf("the keyless GroupAgg is answered %q with %d groups, want 1", resp.Err, len(resp.Groups))
	}
	shippedOnly := genuine
	shippedOnly.ValChunks, shippedOnly.AggKinds = []rpc.ChunkRef{{}}, []sql.AggKind{sql.AggCount}
	if resp := fx.node.Handle(&shippedOnly); resp.Err != "" || len(resp.Groups) != 3 {
		f.Fatalf("the GroupAgg reading only a shipped chunk is answered %q with %d groups, want 3", resp.Err, len(resp.Groups))
	}
	seeds := []rpc.Request{genuine, truncated, beyond, flipped, zeroKey, keyless, noColumn, shippedOnly}
	for _, r := range append(seeds, rpc.Request{Kind: rpc.KindBatch, Subs: seeds}) {
		_, segs, err := rpc.AppendRequest(nil, nil, &r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.Join(segs, nil))
	}
	for _, frame := range prepareFrames(f) {
		f.Add(frame)
	}
	for _, r := range filterRequests(fx) {
		_, segs, err := rpc.AppendRequest(nil, nil, &r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.Join(segs, nil))
	}
	project, groupAgg, frame, firstRef := fusedFrames(f, fx)
	for _, b := range [][]byte{project, groupAgg, frame, firstRef} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		req := &rpc.Request{}
		if rpc.DecodeRequest(b, req) != nil {
			return
		}
		bs := NewMemStore()
		if err := bs.Put("blk", file); err != nil {
			t.Fatal(err)
		}
		resp := NewNode(0, bs).Handle(req)
		if (req.Kind == rpc.KindBatch || len(req.Subs) != 0) && resp.Err == "" && len(resp.Subs) != len(req.Subs) {
			t.Fatalf("%d sub-responses to %d sub-requests", len(resp.Subs), len(req.Subs))
		}
		_, segs, err := rpc.AppendResponse(nil, nil, resp)
		if err != nil {
			t.Fatalf("reply does not encode: %v", err)
		}
		if err := rpc.DecodeResponse(bytes.Join(segs, nil), &rpc.Response{}); err != nil {
			t.Fatalf("reply does not decode: %v", err)
		}
	})
}

// prepareFrames encodes the multi-block prepare seeds: a frame whose middle
// block fails its CRC, the same frame naming its first block twice, a
// prepare with no sub-blocks, and a frame of MaxBatchOps+1 sub-blocks. The
// last two shapes no encoder writes, so they are spliced from valid frames.
func prepareFrames(t testing.TB) [][]byte {
	t.Helper()
	block := func(i int) rpc.Request {
		data := []byte("block payload")
		return rpc.Request{Kind: rpc.KindPrepareBlock, BlockID: fmt.Sprintf("obj/e1/s%04d/b0", i),
			Data: data, Object: "obj", Epoch: 1, Crc: Checksum(data)}
	}
	encode := func(blocks ...rpc.Request) []byte {
		req := &rpc.Request{Kind: rpc.KindPrepareBlock, Subs: blocks}
		if len(blocks) == 0 {
			req = &rpc.Request{Kind: rpc.KindPrepareBlock, Object: "obj", Epoch: 1}
		}
		_, segs, err := rpc.AppendRequest(nil, nil, req)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Join(segs, nil)
	}
	bad := block(1)
	bad.Crc ^= 1
	badCRC := encode(block(0), bad, block(2))
	dup := bytes.Replace(bytes.Clone(badCRC), []byte("s0001"), []byte("s0000"), 1)
	// Every block encodes to the same length, so a frame of MaxBatchOps
	// blocks gains one more by repeating its last and raising the count —
	// uvarint 1024 and 1025 are both two bytes.
	blocks := make([]rpc.Request, rpc.MaxBatchOps)
	for i := range blocks {
		blocks[i] = block(i)
	}
	full := encode(blocks...)
	one := len(full) - len(encode(blocks[1:]...))
	count := len(encode(blocks[0])) - one - 1
	over := append(bytes.Clone(full), full[len(full)-one:]...)
	binary.PutUvarint(over[count:], rpc.MaxBatchOps+1)
	return [][]byte{badCRC, dup, encode(), over}
}

// TestPrepareFrameSeedsDecode pins what FuzzNodeRequest's prepare seeds are:
// the CRC seed and the empty prepare decode; the duplicate and the oversized
// frame are refused for exactly that.
func TestPrepareFrameSeedsDecode(t *testing.T) {
	frames := prepareFrames(t)
	for i, want := range []string{"", "twice", "", "MaxBatchOps"} {
		err := rpc.DecodeRequest(frames[i], &rpc.Request{})
		if want == "" && err != nil || want != "" && (err == nil || !strings.Contains(err.Error(), want)) {
			t.Errorf("seed %d: decode error %v, want %q", i, err, want)
		}
	}
}

// filterRequests are Filters of several leaves over the fixture's chunks: one
// of no leaf, one of MaxBatchOps+1 leaves, one whose second leaf's chunk
// declares another row count than the first's, one naming l_shipdate twice
// (a range's two bounds) beside l_quantity, one whose string literal on
// l_quantity follows an empty l_shipdate range, and a batch of all but the
// second, which no batch may carry.
func filterRequests(fx *rowGroupFixture) []rpc.Request {
	leaf := func(col string, op sql.CmpOp, v int64) rpc.FilterLeaf {
		return rpc.FilterLeaf{Chunk: fx.refs[col], Op: op, Value: sql.IntLit(v)}
	}
	over := make([]rpc.FilterLeaf, rpc.MaxBatchOps+1)
	for i := range over {
		over[i] = leaf("quantity", sql.OpNe, int64(i))
	}
	other := leaf("shipdate", sql.OpGe, 100)
	other.Chunk.Meta.NumValues++
	filters := []rpc.Request{
		{Kind: rpc.KindFilter},
		{Kind: rpc.KindFilter, Leaves: over},
		{Kind: rpc.KindFilter, Leaves: []rpc.FilterLeaf{leaf("quantity", sql.OpLt, 25), other}},
		{Kind: rpc.KindFilter, Leaves: []rpc.FilterLeaf{
			leaf("shipdate", sql.OpGe, 100), leaf("quantity", sql.OpLt, 25), leaf("shipdate", sql.OpLt, 900)}},
		{Kind: rpc.KindFilter, Leaves: []rpc.FilterLeaf{leaf("shipdate", sql.OpGe, 900), leaf("shipdate", sql.OpLt, 100),
			{Chunk: fx.refs["quantity"], Op: sql.OpLt, Value: sql.StringLit("25")}}},
	}
	return append(filters, rpc.Request{Kind: rpc.KindBatch, Subs: []rpc.Request{filters[0], filters[2], filters[3], filters[4]}})
}

// TestFilterRequestsArePerOpErrors pins what FuzzNodeRequest's Filter seeds
// get from a node: the Filter of no leaf, of too many, of leaves of differing
// row counts and of a misfit literal each an error reply, alone or in a frame
// whose other sub-ops it leaves be; the one naming l_shipdate twice the AND
// of its leaves.
func TestFilterRequestsArePerOpErrors(t *testing.T) {
	fx := newRowGroupFixture(t, 300)
	reqs := filterRequests(fx)
	for i, want := range []string{"0 leaves", "1025 leaves", "rows", "", "incompatible literal"} {
		resp := fx.handled(t, &reqs[i])
		if want == "" && resp.Err != "" || want != "" && !strings.Contains(resp.Err, want) {
			t.Errorf("Filter %d: error %q, want %q", i, resp.Err, want)
		}
	}
	ship, qty := fx.cols["shipdate"].Ints, fx.cols["quantity"].Ints
	var rows []int
	for r := range ship {
		if ship[r] >= 100 && ship[r] < 900 && qty[r] < 25 {
			rows = append(rows, r)
		}
	}
	batch := fx.handled(t, &reqs[5])
	if batch.Err != "" || len(batch.Subs) != 4 {
		t.Fatalf("the frame is answered %q with %d sub-responses, want 4", batch.Err, len(batch.Subs))
	}
	for i, sub := range batch.Subs {
		if (sub.Err == "") != (i == 2) {
			t.Fatalf("in the frame: sub-op %d's error is %q; want the third alone answered", i, sub.Err)
		}
	}
	bm, err := bitmap.Unmarshal(batch.Subs[2].Data, fx.rows)
	if err != nil || fmt.Sprint(bm.Indexes()) != fmt.Sprint(rows) {
		t.Fatalf("the range beside l_quantity selects %d rows, want %d (%v)", batch.Subs[2].Matches, len(rows), err)
	}
}

// fusedFrames are FuzzNodeRequest's seeds of selections that are
// conjunctions: a Project of l_price whose selection is a range on
// l_shipdate beside l_quantity, a keyless GroupAgg of l_price by the same
// leaves, both in one frame behind the Filter of those leaves — the Project
// and the GroupAgg back-references to its leaves — and that frame with its
// first sub-op's selection rewritten to a back-reference, which no frame may
// start with.
func fusedFrames(t testing.TB, fx *rowGroupFixture) (project, groupAgg, frame, firstRef []byte) {
	t.Helper()
	leaves := filterRequests(fx)[3].Leaves
	p := rpc.Request{Kind: rpc.KindProject, Chunk: fx.refs["price"], Leaves: leaves}
	g := rpc.Request{Kind: rpc.KindGroupAgg, Leaves: leaves, ValChunks: []rpc.ChunkRef{fx.refs["price"]},
		AggKinds: []sql.AggKind{sql.AggSum}, MaxGroups: 1}
	encode := func(r *rpc.Request) []byte {
		_, segs, err := rpc.AppendRequest(nil, nil, r)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Join(segs, nil)
	}
	frame = encode(&rpc.Request{Kind: rpc.KindBatch, Subs: []rpc.Request{{Kind: rpc.KindFilter, Leaves: leaves}, p, g}})
	// A frame of one selection-less Project ends in its Bitmap's empty
	// payload (1) and eight zero fields behind it; 0 there is a
	// back-reference.
	firstRef = encode(&rpc.Request{Kind: rpc.KindBatch, Subs: []rpc.Request{{Kind: rpc.KindProject, Chunk: fx.refs["price"]}}})
	firstRef[len(firstRef)-9] = 0
	return encode(&p), encode(&g), frame, firstRef
}

// TestFusedFramesAnswerAsFiltered pins FuzzNodeRequest's fused seeds: the
// Project and GroupAgg whose selection is a conjunction answer with the rows
// and the sum that conjunction's Filter selects, alone and sharing its leaves
// in one frame; and a frame whose first sub-op back-references a selection
// does not decode.
func TestFusedFramesAnswerAsFiltered(t *testing.T) {
	fx := newRowGroupFixture(t, 300)
	project, groupAgg, frame, firstRef := fusedFrames(t, fx)
	decode := func(b []byte) *rpc.Request {
		req := &rpc.Request{}
		if err := rpc.DecodeRequest(b, req); err != nil {
			t.Fatal(err)
		}
		return req
	}
	batch := fx.handled(t, decode(frame))
	if batch.Err != "" || len(batch.Subs) != 3 {
		t.Fatalf("the frame is answered %q with %d sub-responses", batch.Err, len(batch.Subs))
	}
	sel, err := bitmap.Unmarshal(batch.Subs[0].Data, fx.rows)
	if err != nil {
		t.Fatal(err)
	}
	want := SelectRows(fx.cols["price"], sel)
	sum := 0.0
	for _, v := range want.Floats {
		sum += v
	}
	for name, resps := range map[string][2]rpc.Response{
		"alone":    {*fx.handled(t, decode(project)), *fx.handled(t, decode(groupAgg))},
		"in frame": {batch.Subs[1], batch.Subs[2]},
	} {
		p, g := resps[0], resps[1]
		got, err := gatherReply(lpq.ColumnData{Type: lpq.Float64}, sel.Count(), p.Data)
		if p.Err != "" || p.Size != 0 || err != nil || !sameValues(got, want) {
			t.Fatalf("%s: the Project answered %q (declined %d B, %v) with other rows than the Filter's", name, p.Err, p.Size, err)
		}
		if g.Err != "" || len(g.Groups) != 1 || g.Groups[0].Rows != int64(sel.Count()) || g.Groups[0].Aggs[0].Sum != sum {
			t.Fatalf("%s: the GroupAgg answered %q, %+v; want %d rows summing to %v", name, g.Err, g.Groups, sel.Count(), sum)
		}
	}
	if err := rpc.DecodeRequest(firstRef, &rpc.Request{}); err == nil || !strings.Contains(err.Error(), "back-reference") {
		t.Fatalf("a back-reference on the first sub-op decoded: %v", err)
	}
}
