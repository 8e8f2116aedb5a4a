package cluster

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/fusionstore/fusion/internal/bitmap"
	"github.com/fusionstore/fusion/internal/colenc"
	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/sql"
)

func testStores(t *testing.T) map[string]BlockStore {
	t.Helper()
	disk, err := NewDiskStore(filepath.Join(t.TempDir(), "blocks"))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]BlockStore{"mem": NewMemStore(), "disk": disk}
}

func TestBlockStoreBasics(t *testing.T) {
	for name, bs := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			if err := bs.Put("a/b", []byte("hello world")); err != nil {
				t.Fatal(err)
			}
			got, err := bs.Get("a/b", 0, 0)
			if err != nil || !bytes.Equal(got, []byte("hello world")) {
				t.Fatalf("Get = %q, %v", got, err)
			}
			got, err = bs.Get("a/b", 6, 5)
			if err != nil || string(got) != "world" {
				t.Fatalf("range Get = %q, %v", got, err)
			}
			if _, err := bs.Get("a/b", 6, 100); err == nil {
				t.Fatal("out-of-range Get must fail")
			}
			if _, err := bs.Get("a/b", 100, 0); err == nil {
				t.Fatal("offset beyond block must fail")
			}
			size, err := bs.Size("a/b")
			if err != nil || size != 11 {
				t.Fatalf("Size = %d, %v", size, err)
			}
			if _, err := bs.Get("missing", 0, 0); err == nil {
				t.Fatal("missing block must fail")
			}
			if _, err := bs.Size("missing"); err == nil {
				t.Fatal("missing block Size must fail")
			}
			// Overwrite.
			if err := bs.Put("a/b", []byte("x")); err != nil {
				t.Fatal(err)
			}
			if size, _ := bs.Size("a/b"); size != 1 {
				t.Fatal("overwrite must replace contents")
			}
			if err := bs.Put("c", []byte("y")); err != nil {
				t.Fatal(err)
			}
			ids := bs.IDs()
			if !reflect.DeepEqual(ids, []string{"a/b", "c"}) {
				t.Fatalf("IDs = %v", ids)
			}
			if err := bs.Delete("a/b"); err != nil {
				t.Fatal(err)
			}
			if err := bs.Delete("a/b"); err != nil {
				t.Fatal("double delete must be a no-op")
			}
			if len(bs.IDs()) != 1 {
				t.Fatal("delete must remove the block")
			}
		})
	}
}

func TestMemStoreTotalBytes(t *testing.T) {
	ms := NewMemStore()
	ms.Put("a", make([]byte, 100))
	ms.Put("b", make([]byte, 28))
	if ms.TotalBytes() != 128 {
		t.Fatalf("TotalBytes = %d", ms.TotalBytes())
	}
}

func TestMemStorePutCopies(t *testing.T) {
	ms := NewMemStore()
	buf := []byte("abc")
	ms.Put("a", buf)
	buf[0] = 'z'
	got, _ := ms.Get("a", 0, 0)
	if string(got) != "abc" {
		t.Fatal("Put must copy its input")
	}
}

// chunkFixture builds one encoded chunk and stores it in a block at a
// nonzero offset, returning the node and a ChunkRef.
func chunkFixture(t *testing.T, vals []int64) (*Node, rpc.ChunkRef) {
	t.Helper()
	w := lpq.NewWriter([]lpq.Column{{Name: "v", Type: lpq.Int64}}, lpq.DefaultWriterOptions())
	if err := w.WriteRowGroup([]lpq.ColumnData{lpq.IntColumn(vals)}); err != nil {
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
	node := NewNode(0, NewMemStore())
	const pad = 13
	block := append(make([]byte, pad), raw...)
	if err := node.Blocks.Put("blk", block); err != nil {
		t.Fatal(err)
	}
	return node, rpc.ChunkRef{BlockID: "blk", Offset: pad, Type: lpq.Int64, Meta: meta}
}

func TestNodeFilter(t *testing.T) {
	vals := []int64{5, 10, 15, 20, 25}
	node, ref := chunkFixture(t, vals)
	resp := node.Handle(&rpc.Request{
		Kind: rpc.KindFilter, Chunk: ref, Op: sql.OpGt, Value: sql.IntLit(12),
	})
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	bm, err := bitmap.Unmarshal(resp.Data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bm.Indexes(), []int{2, 3, 4}) {
		t.Fatalf("filter selected %v", bm.Indexes())
	}
	if resp.Matches != 3 {
		t.Fatalf("Matches = %d", resp.Matches)
	}
	if resp.Cost.DiskBytes != ref.Meta.Size || resp.Cost.ProcBytes != ref.Meta.RawSize {
		t.Fatalf("cost accounting wrong: %+v", resp.Cost)
	}
}

func TestNodeProject(t *testing.T) {
	vals := []int64{5, 10, 15, 20, 25}
	node, ref := chunkFixture(t, vals)
	bm := bitmap.New(5)
	bm.Set(0)
	bm.Set(4)
	resp := node.Handle(&rpc.Request{Kind: rpc.KindProject, Chunk: ref, Bitmap: bm.Marshal()})
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	col, err := DecodePlain(resp.Data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(col.Ints, []int64{5, 25}) {
		t.Fatalf("projected %v", col.Ints)
	}
}

func TestNodeProjectBadBitmap(t *testing.T) {
	node, ref := chunkFixture(t, []int64{1, 2, 3})
	resp := node.Handle(&rpc.Request{Kind: rpc.KindProject, Chunk: ref, Bitmap: []byte("junk")})
	if resp.Err == "" {
		t.Fatal("corrupt bitmap must fail")
	}
	wrong := bitmap.New(99)
	resp = node.Handle(&rpc.Request{Kind: rpc.KindProject, Chunk: ref, Bitmap: wrong.Marshal()})
	if resp.Err == "" {
		t.Fatal("length-mismatched bitmap must fail")
	}
}

func TestNodeErrors(t *testing.T) {
	node := NewNode(0, NewMemStore())
	if resp := node.Handle(&rpc.Request{Kind: rpc.KindGetBlock, BlockID: "nope"}); resp.Err == "" {
		t.Fatal("GetBlock of missing block must fail")
	}
	if resp := node.Handle(&rpc.Request{Kind: rpc.Kind(99)}); resp.Err == "" {
		t.Fatal("unknown kind must fail")
	}
	if resp := node.Handle(&rpc.Request{Kind: rpc.KindPing}); resp.Err != "" {
		t.Fatal("ping must succeed")
	}
	if resp := node.Handle(&rpc.Request{Kind: rpc.KindFilter, Chunk: rpc.ChunkRef{BlockID: "nope"}}); resp.Err == "" {
		t.Fatal("filter on missing block must fail")
	}
}

func TestNodeBlockOps(t *testing.T) {
	node := NewNode(3, NewMemStore())
	if resp := node.Handle(&rpc.Request{Kind: rpc.KindPutBlock, BlockID: "b", Data: []byte("0123456789")}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	resp := node.Handle(&rpc.Request{Kind: rpc.KindBlockSize, BlockID: "b"})
	if resp.Err != "" || resp.Size != 10 {
		t.Fatalf("BlockSize = %d, %s", resp.Size, resp.Err)
	}
	resp = node.Handle(&rpc.Request{Kind: rpc.KindGetBlock, BlockID: "b", Offset: 2, Length: 3})
	if resp.Err != "" || string(resp.Data) != "234" {
		t.Fatalf("GetBlock = %q, %s", resp.Data, resp.Err)
	}
	if resp.Cost.DiskBytes != 3 {
		t.Fatalf("disk cost = %d", resp.Cost.DiskBytes)
	}
	if resp := node.Handle(&rpc.Request{Kind: rpc.KindDeleteBlock, BlockID: "b"}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
}

func TestEncodeDecodePlain(t *testing.T) {
	cases := []lpq.ColumnData{
		lpq.IntColumn([]int64{1, -5, 1 << 40}),
		lpq.FloatColumn([]float64{1.5, -2.25}),
		lpq.StringColumn([]string{"a", "", "xyz"}),
		lpq.IntColumn(nil),
	}
	for _, c := range cases {
		got, err := DecodePlain(EncodePlain(c))
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != c.Type || got.Len() != c.Len() {
			t.Fatalf("round trip changed shape: %+v vs %+v", got, c)
		}
	}
	if _, err := DecodePlain(nil); err == nil {
		t.Fatal("empty payload must fail")
	}
	if _, err := DecodePlain([]byte{9, 1, 0}); err == nil {
		t.Fatal("unknown type must fail")
	}
}

// EncodePlain serializes already-selected column values in the projection
// reply form, [type byte][uvarint count][plain values] — what handleProject
// sent before it wrote the reply straight from the opened chunk. Kept, with
// SelectRows, as the reference its reply is checked against.
func EncodePlain(col lpq.ColumnData) []byte {
	out := appendPlainHeader(nil, col.Type, col.Len())
	switch col.Type {
	case lpq.Int64:
		out = colenc.PutInt64s(out, col.Ints)
	case lpq.Float64:
		out = colenc.PutFloat64s(out, col.Floats)
	default:
		out = colenc.PutStrings(out, col.Strings)
	}
	return out
}

// SelectRows returns the subset of col's values whose bits are set — value at
// a time over a fully decoded column, as handleProject worked before it
// gathered from the opened chunk. Kept as the reference its reply is checked
// against.
func SelectRows(col lpq.ColumnData, bm *bitmap.Bitmap) lpq.ColumnData {
	out := lpq.ColumnData{Type: col.Type}
	switch col.Type {
	case lpq.Int64:
		out.Ints = make([]int64, 0, bm.Count())
		bm.ForEach(func(i int) { out.Ints = append(out.Ints, col.Ints[i]) })
	case lpq.Float64:
		out.Floats = make([]float64, 0, bm.Count())
		bm.ForEach(func(i int) { out.Floats = append(out.Floats, col.Floats[i]) })
	default:
		out.Strings = make([]string, 0, bm.Count())
		bm.ForEach(func(i int) { out.Strings = append(out.Strings, col.Strings[i]) })
	}
	return out
}

func TestSelectRows(t *testing.T) {
	col := lpq.StringColumn([]string{"a", "b", "c", "d"})
	bm := bitmap.New(4)
	bm.Set(1)
	bm.Set(3)
	got := SelectRows(col, bm)
	if !reflect.DeepEqual(got.Strings, []string{"b", "d"}) {
		t.Fatalf("SelectRows = %v", got.Strings)
	}
}

func TestAppendColumn(t *testing.T) {
	var dst lpq.ColumnData
	if err := AppendColumn(&dst, lpq.IntColumn([]int64{1, 2})); err != nil {
		t.Fatal(err)
	}
	if err := AppendColumn(&dst, lpq.IntColumn([]int64{3})); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dst.Ints, []int64{1, 2, 3}) {
		t.Fatalf("AppendColumn = %v", dst.Ints)
	}
	if err := AppendColumn(&dst, lpq.FloatColumn([]float64{1})); err == nil {
		t.Fatal("type mismatch must fail")
	}
}

func TestParallel(t *testing.T) {
	node := NewNode(0, NewMemStore())
	node.Blocks.Put("b", []byte("data"))
	client := singleNodeClient{node}
	reqs := []*rpc.Request{
		{Kind: rpc.KindGetBlock, BlockID: "b"},
		{Kind: rpc.KindPing},
		{Kind: rpc.KindGetBlock, BlockID: "missing"},
	}
	results := Parallel(client, []int{0, 0, 0}, reqs)
	if len(results) != 3 {
		t.Fatal("wrong result count")
	}
	if string(results[0].Resp.Data) != "data" {
		t.Fatal("result 0 wrong")
	}
	if results[2].Resp.Err == "" {
		t.Fatal("result 2 must carry the error")
	}
}

type singleNodeClient struct{ node *Node }

func (c singleNodeClient) Call(node int, req *rpc.Request) (*rpc.Response, error) {
	return c.node.Handle(req), nil
}
func (c singleNodeClient) NumNodes() int { return 1 }

func TestDiskStoreEscapesIDs(t *testing.T) {
	dir := t.TempDir()
	ds, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	id := "obj/s1/b2"
	if err := ds.Put(id, []byte("x")); err != nil {
		t.Fatal(err)
	}
	got := ds.IDs()
	if !reflect.DeepEqual(got, []string{id}) {
		t.Fatalf("IDs = %v", got)
	}
}
