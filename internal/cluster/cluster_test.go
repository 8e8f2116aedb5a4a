package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
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

// TestMemStoreViewOutlivesOverwriteAndDelete pins what lets MemStore.Get
// return a view instead of a copy: stored blocks are immutable. A view taken
// before an overwriting Put, and one taken before a Delete, keep reading the
// bytes they were taken over; a view's capacity ends where the view does, so
// an append by its holder cannot reach the stored bytes behind it; and a range
// that overflows uint64 is an error, not a panic.
func TestMemStoreViewOutlivesOverwriteAndDelete(t *testing.T) {
	ms := NewMemStore()
	if err := ms.Put("a", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	whole, err := ms.Get("a", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	part, err := ms.Get("a", 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cap(whole) != len(whole) || cap(part) != len(part) {
		t.Fatalf("view capacities %d and %d exceed lengths %d and %d", cap(whole), cap(part), len(whole), len(part))
	}
	if grown := append(part, 'X'); &grown[0] == &part[0] {
		t.Fatal("append to a view grew in place")
	}
	if again, _ := ms.Get("a", 0, 0); string(again) != "0123456789" {
		t.Fatalf("append to a view reached the stored block: %q", again)
	}
	if err := ms.Put("a", []byte("overwritten")); err != nil {
		t.Fatal(err)
	}
	if string(whole) != "0123456789" || string(part) != "234" {
		t.Fatalf("views changed under an overwrite: %q %q", whole, part)
	}
	fresh, _ := ms.Get("a", 0, 0)
	if err := ms.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if string(fresh) != "overwritten" || string(whole) != "0123456789" {
		t.Fatalf("views changed under a delete: %q %q", fresh, whole)
	}
	if _, err := ms.Get("a", 0, 0); err == nil {
		t.Fatal("deleted block still readable")
	}
	ms.Put("b", []byte("0123456789"))
	for _, r := range [][2]uint64{{5, ^uint64(0) - 2}, {11, 0}, {0, 11}, {10, 1}} {
		if got, err := ms.Get("b", r[0], r[1]); err == nil {
			t.Fatalf("Get(%d, %d) of a 10-byte block returned %d bytes", r[0], r[1], len(got))
		}
	}
}

// TestMemStoreViewConcurrent: writers, deleters and readers of one id at once.
// Every view a reader gets is one whole version, never a mix, and stays that
// version while the id is overwritten under it. Run under -race.
func TestMemStoreViewConcurrent(t *testing.T) {
	ms := NewMemStore()
	const size = 4 << 10
	version := func(b byte) []byte { return bytes.Repeat([]byte{b}, size) }
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%5 == 4 {
					ms.Delete("blk")
				} else {
					ms.Put("blk", version(byte(1+w*100+i%50)))
				}
			}
		}(w)
	}
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 2000; i++ {
				view, err := ms.Get("blk", 0, 0)
				if err != nil {
					continue // between a Delete and the next Put
				}
				first := view[0]
				runtime.Gosched() // let a writer replace the block under the view
				if len(view) != size || !bytes.Equal(view, version(first)) {
					t.Errorf("a view mixes versions or changed while held (first byte %d)", first)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	wg.Wait()
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
		Kind: rpc.KindFilter, Leaves: []rpc.FilterLeaf{{Chunk: ref, Op: sql.OpGt, Value: sql.IntLit(12)}},
	})
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	bm, err := bitmap.Unmarshal(resp.Data, len(vals))
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
	col, err := gatherReply(lpq.ColumnData{Type: lpq.Int64}, 2, resp.Data)
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
	if resp := node.Handle(&rpc.Request{Kind: rpc.KindFilter, Leaves: []rpc.FilterLeaf{{Chunk: rpc.ChunkRef{BlockID: "nope"}}}}); resp.Err == "" {
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

// gatherReply opens a projection reply of rows rows of dst's type and gathers
// it onto dst, as the coordinator does.
func gatherReply(dst lpq.ColumnData, rows int, data []byte) (lpq.ColumnData, error) {
	ch, err := lpq.OpenReply(dst.Type, rows, data)
	if err != nil {
		return dst, err
	}
	return ch.AppendGather(dst, nil)
}

// replyOf is the projection reply a node sends for the rows of vals that sel
// selects (nil: every row), the column written as the default writer writes
// it.
func replyOf(t *testing.T, vals lpq.ColumnData, sel *bitmap.Bitmap) []byte {
	t.Helper()
	w := lpq.NewWriter([]lpq.Column{{Name: "v", Type: vals.Type}}, lpq.DefaultWriterOptions())
	if err := w.WriteRowGroup([]lpq.ColumnData{vals}); err != nil {
		t.Fatal(err)
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	node := NewNode(0, NewMemStore())
	if err := node.Blocks.Put("blk", data); err != nil {
		t.Fatal(err)
	}
	if sel == nil {
		sel = bitmap.NewFull(vals.Len())
	}
	f, err := lpq.Open(data)
	if err != nil {
		t.Fatal(err)
	}
	meta := f.Footer().RowGroups[0].Chunks[0]
	resp := node.Handle(&rpc.Request{
		Kind: rpc.KindProject, Bitmap: sel.Marshal(),
		Chunk: rpc.ChunkRef{BlockID: "blk", Offset: meta.Offset, Type: vals.Type, Meta: meta},
	})
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	return resp.Data
}

// TestProjectReplyRoundTrip: a projection reply of each type and of none of
// its rows gathers to the selected values; no reply opens as a type its
// encoding cannot hold, nor as an unknown type, nor from no bytes; a column
// of another type is refused; and a reply opens only for the rows it holds —
// a page declaring 2^40 rows is refused before it sizes anything.
func TestProjectReplyRoundTrip(t *testing.T) {
	cases := []lpq.ColumnData{
		lpq.IntColumn([]int64{1, -5, 1 << 40}),
		lpq.FloatColumn([]float64{1.5, -2.25}),
		lpq.StringColumn([]string{"a", "", "xyz"}),
	}
	for _, c := range cases {
		data := replyOf(t, c, nil)
		got, err := gatherReply(lpq.ColumnData{Type: c.Type}, c.Len(), data)
		if err != nil || !reflect.DeepEqual(got, c) {
			t.Fatalf("%v: round trip gave %+v, %v", c.Type, got, err)
		}
		none := replyOf(t, c, bitmap.New(c.Len()))
		if got, err := gatherReply(lpq.ColumnData{Type: c.Type}, 0, none); err != nil || got.Len() != 0 {
			t.Fatalf("%v: the reply of no row gave %d values, %v", c.Type, got.Len(), err)
		}
		for _, rows := range []int{c.Len() + 1, c.Len() - 1, 1 << 40} {
			if _, err := lpq.OpenReply(c.Type, rows, data); err == nil {
				t.Fatalf("%v: a reply of %d rows opened as %d", c.Type, c.Len(), rows)
			}
		}
		ch, err := lpq.OpenReply(c.Type, c.Len(), data)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ch.AppendGather(lpq.ColumnData{Type: (c.Type + 1) % 3}, nil); err == nil {
			t.Fatalf("%v: a reply gathered into a column of another type", c.Type)
		}
		if _, err := lpq.OpenReply(9, c.Len(), data); err == nil {
			t.Fatalf("%v: a reply opened as an unknown type", c.Type)
		}
		if _, err := lpq.OpenReply(c.Type, 0, nil); err == nil {
			t.Fatalf("%v: no bytes opened as a reply", c.Type)
		}
	}
	// Frame-of-reference, decimal and FSST pages hold one type only.
	for _, c := range []struct {
		vals  lpq.ColumnData
		other []lpq.Type
	}{
		{lpq.IntColumn(seq(1000, func(i int) int64 { return int64(i * 7) })), []lpq.Type{lpq.Float64, lpq.String}},
		{lpq.FloatColumn(seq(1000, func(i int) float64 { return float64(i) / 100 })), []lpq.Type{lpq.Int64, lpq.String}},
		{lpq.StringColumn(seq(1000, func(i int) string { return fmt.Sprintf("value %d", i) })), []lpq.Type{lpq.Int64, lpq.Float64}},
	} {
		data := replyOf(t, c.vals, nil)
		if enc := colenc.Encoding(data[0]); enc != colenc.FOR && enc != colenc.Decimal && enc != colenc.FSST {
			t.Fatalf("%v column replied as %v", c.vals.Type, enc)
		}
		for _, typ := range c.other {
			if _, err := lpq.OpenReply(typ, c.vals.Len(), data); err == nil {
				t.Fatalf("a %v reply opened as %v", colenc.Encoding(data[0]), typ)
			}
		}
	}
	// A plain page declaring 2^40 rows.
	bomb := binary.AppendUvarint(binary.AppendUvarint([]byte{byte(colenc.Plain), 1}, 1<<40), 8)
	if _, err := lpq.OpenReply(lpq.Int64, 1<<40, append(bomb, make([]byte, 8)...)); err == nil {
		t.Fatal("a reply of 2^40 rows opened")
	}
}

func seq[T any](n int, f func(int) T) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = f(i)
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

// TestProjectReplyIntoWindow: a reply gathers by appending, so replies land
// one after another on a column, and one handed a zero-length,
// capacity-clipped window of a larger column lands in that window — at an
// offset other than 0 — without touching the rows on either side. A reply with
// more values than the window holds moves away instead of overwriting the next
// row.
func TestProjectReplyIntoWindow(t *testing.T) {
	rows := func(col lpq.ColumnData, off, n int) lpq.ColumnData {
		switch col.Type {
		case lpq.Int64:
			col.Ints = col.Ints[off : off+n : off+n]
		case lpq.Float64:
			col.Floats = col.Floats[off : off+n : off+n]
		default:
			col.Strings = col.Strings[off : off+n : off+n]
		}
		return col
	}
	window := lpq.ColumnData.Window
	cases := []struct {
		vals, col, filled lpq.ColumnData // filled: col with vals gathered into rows [2,5)
	}{
		{lpq.IntColumn([]int64{1, -2, 3}), lpq.IntColumn([]int64{7, 7, 7, 7, 7, 7, 7}), lpq.IntColumn([]int64{7, 7, 1, -2, 3, 7, 7})},
		{lpq.FloatColumn([]float64{1.5, -2.5, 3.5}), lpq.FloatColumn([]float64{7, 7, 7, 7, 7, 7, 7}), lpq.FloatColumn([]float64{7, 7, 1.5, -2.5, 3.5, 7, 7})},
		{lpq.StringColumn([]string{"a", "", "ccc"}), lpq.StringColumn([]string{"7", "7", "7", "7", "7", "7", "7"}), lpq.StringColumn([]string{"7", "7", "a", "", "ccc", "7", "7"})},
	}
	for _, c := range cases {
		payload := replyOf(t, c.vals, nil)
		n := c.vals.Len()
		// Appending twice concatenates.
		got, err := gatherReply(lpq.ColumnData{Type: c.vals.Type}, n, payload)
		if err == nil {
			got, err = gatherReply(got, n, payload)
		}
		if err != nil || got.Len() != 2*n {
			t.Fatalf("%v: two appends gave %d values, %v", c.vals.Type, got.Len(), err)
		}
		// Into rows [2,5) of a column of seven.
		got, err = gatherReply(window(c.col, 2, 3), n, payload)
		if err != nil || !reflect.DeepEqual(got, rows(c.filled, 2, 3)) || !reflect.DeepEqual(c.col, c.filled) {
			t.Fatalf("%v: window gather returned %v and left the column %v, want %v (err %v)", c.vals.Type, got, c.col, c.filled, err)
		}
		// One value too many for rows [0,2): it is gathered elsewhere, and
		// row 2 keeps what it held.
		got, err = gatherReply(window(c.col, 0, 2), n, payload)
		if err != nil || got.Len() != 3 {
			t.Fatalf("%v: overlong gather: %d values, %v", c.vals.Type, got.Len(), err)
		}
		if !reflect.DeepEqual(rows(c.col, 2, 5), rows(c.filled, 2, 5)) {
			t.Fatalf("%v: an overlong reply wrote past its window: %v", c.vals.Type, c.col)
		}
	}
}

func TestCallChecked(t *testing.T) {
	node := NewNode(0, NewMemStore())
	node.Blocks.Put("b", []byte("data"))
	client := singleNodeClient{node}
	resp, err := CallChecked(client, 0, &rpc.Request{Kind: rpc.KindGetBlock, BlockID: "b"})
	if err != nil || string(resp.Data) != "data" {
		t.Fatalf("read of a stored block: %v, %v", resp, err)
	}
	// An application error comes back as a Go error beside the response.
	resp, err = CallChecked(client, 0, &rpc.Request{Kind: rpc.KindGetBlock, BlockID: "missing"})
	if err == nil || resp == nil || resp.Err == "" {
		t.Fatalf("read of a missing block: %v, %v", resp, err)
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
