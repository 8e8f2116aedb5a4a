package store

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"github.com/fusionstore/fusion/internal/lpq"
)

func TestQuerySurvivesChunkCorruption(t *testing.T) {
	data, _, _ := makeObject(t, 2, 300, 55)
	s, cl := newSimStore(t, fusionTestOptions())
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	want, err := s.Query("SELECT id FROM obj WHERE qty < 10")
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the block holding the qty chunk of row group 0 in place.
	meta, err := s.Meta("obj")
	if err != nil {
		t.Fatal(err)
	}
	itemIdx := meta.ChunkItemIndex(0, 1) // qty column
	loc := meta.ItemLocs[itemIdx]
	stripe := meta.Stripes[loc.Stripe]
	node := cl.Node(stripe.Nodes[loc.Bin])
	blockID := stripe.BlockIDs[loc.Bin]
	block, err := node.Blocks.Get(blockID, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	block = bytes.Clone(block)     // a block read from a store is read-only
	block[loc.BinOffset+3] ^= 0xff // flip a byte inside the chunk
	if err := node.Blocks.Put(blockID, block); err != nil {
		t.Fatal(err)
	}
	// The pushed-down filter on the corrupt chunk fails its checksum on
	// the node; the coordinator falls back to fetching, detects the
	// corruption again, and reconstructs the chunk from stripe parity.
	got, err := s.Query("SELECT id FROM obj WHERE qty < 10")
	if err != nil {
		t.Fatalf("query over corrupted chunk: %v", err)
	}
	if got.Rows != want.Rows {
		t.Fatalf("rows = %d, want %d", got.Rows, want.Rows)
	}
}

func TestProjectionSurvivesChunkCorruption(t *testing.T) {
	data, _, _ := makeObject(t, 2, 300, 56)
	s, cl := newSimStore(t, fusionTestOptions())
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	want, err := s.Query("SELECT comment FROM obj WHERE qty < 10")
	if err != nil {
		t.Fatal(err)
	}
	meta, _ := s.Meta("obj")
	itemIdx := meta.ChunkItemIndex(1, 4) // comment column, rg 1
	loc := meta.ItemLocs[itemIdx]
	stripe := meta.Stripes[loc.Stripe]
	node := cl.Node(stripe.Nodes[loc.Bin])
	blockID := stripe.BlockIDs[loc.Bin]
	block, err := node.Blocks.Get(blockID, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	block = bytes.Clone(block) // a block read from a store is read-only
	block[loc.BinOffset] ^= 0x5a
	if err := node.Blocks.Put(blockID, block); err != nil {
		t.Fatal(err)
	}
	got, err := s.Query("SELECT comment FROM obj WHERE qty < 10")
	if err != nil {
		t.Fatalf("projection over corrupted chunk: %v", err)
	}
	if got.Rows != want.Rows || got.Data[0].Len() != want.Data[0].Len() {
		t.Fatal("corrupted-chunk projection returned wrong rows")
	}
}

// TestPutRefusesInconsistentFooter: an object whose footer gives a chunk a
// different row count from its row group — what a reader would size bitmaps
// and value slices by — is refused at Put like any malformed footer, through
// both entry points, and nothing is stored.
func TestPutRefusesInconsistentFooter(t *testing.T) {
	w := lpq.NewWriter([]lpq.Column{{Name: "v", Type: lpq.Int64}}, lpq.DefaultWriterOptions())
	if err := w.WriteRowGroup([]lpq.ColumnData{lpq.IntColumn([]int64{1, 2, 3, 4, 5})}); err != nil {
		t.Fatal(err)
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	footer, err := lpq.ParseFooter(data)
	if err != nil {
		t.Fatal(err)
	}
	fsize, err := lpq.FooterSize(data)
	if err != nil {
		t.Fatal(err)
	}
	// Footer: column count, (name length, name, type), row-group count,
	// NumRows, then the chunk's Offset, Size, RawSize and NumValues, every
	// number a one-byte uvarint at this size.
	ch := footer.RowGroups[0].Chunks[0]
	if ch.Offset >= 0x80 || ch.Size >= 0x80 || ch.RawSize >= 0x80 {
		t.Fatalf("chunk fields %+v no longer fit one byte each", ch)
	}
	numRows := len(data) - fsize + 1 + (1 + len("v") + 1) + 1
	numValues := numRows + 4
	if data[numRows] != 5 || data[numValues] != 5 {
		t.Fatalf("footer layout moved: NumRows byte %d, NumValues byte %d, want 5 and 5", data[numRows], data[numValues])
	}
	bad := append([]byte(nil), data...)
	bad[numValues] = 6

	s, cl := newSimStore(t, fusionTestOptions())
	if _, err := s.Put("good", data); err != nil {
		t.Fatalf("control object: %v", err)
	}
	stored := cl.Node(0).Blocks.IDs()
	_, err = s.Put("bad", bad)
	if err == nil || !strings.Contains(err.Error(), "is not a valid lpq object") {
		t.Fatalf("Put of a footer with NumValues != NumRows: %v", err)
	}
	_, err = s.PutReader(context.Background(), "bad", bytes.NewReader(bad), uint64(len(bad)))
	if err == nil || !strings.Contains(err.Error(), "is not a valid lpq object") {
		t.Fatalf("PutReader of a footer with NumValues != NumRows: %v", err)
	}
	if after := cl.Node(0).Blocks.IDs(); !reflect.DeepEqual(after, stored) {
		t.Fatalf("a refused Put left blocks behind: %v, was %v", after, stored)
	}
}
