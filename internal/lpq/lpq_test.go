package lpq

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"github.com/fusionstore/fusion/internal/colenc"
)

var testSchema = []Column{
	{Name: "id", Type: Int64},
	{Name: "price", Type: Float64},
	{Name: "comment", Type: String},
}

func buildTestFile(t *testing.T, opts WriterOptions, rowGroups int, rowsPer int) ([]byte, [][]ColumnData) {
	t.Helper()
	w := NewWriter(testSchema, opts)
	rng := rand.New(rand.NewSource(99))
	var all [][]ColumnData
	for g := 0; g < rowGroups; g++ {
		ids := make([]int64, rowsPer)
		prices := make([]float64, rowsPer)
		comments := make([]string, rowsPer)
		for i := range ids {
			ids[i] = int64(g*rowsPer + i)
			prices[i] = float64(rng.Intn(100)) + 0.25
			comments[i] = fmt.Sprintf("comment-%d", rng.Intn(10))
		}
		cols := []ColumnData{IntColumn(ids), FloatColumn(prices), StringColumn(comments)}
		if err := w.WriteRowGroup(cols); err != nil {
			t.Fatal(err)
		}
		all = append(all, cols)
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return data, all
}

func TestFileRoundTrip(t *testing.T) {
	for _, opts := range []WriterOptions{
		DefaultWriterOptions(),
		{Compress: false},
		{Compress: true, DisableDict: true},
		{Compress: false, DisableDict: true},
	} {
		data, want := buildTestFile(t, opts, 3, 200)
		f, err := Open(data)
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		if got := len(f.Footer().RowGroups); got != 3 {
			t.Fatalf("want 3 row groups, got %d", got)
		}
		if f.Footer().NumRows() != 600 {
			t.Fatalf("want 600 rows, got %d", f.Footer().NumRows())
		}
		if f.Footer().NumChunks() != 9 {
			t.Fatalf("want 9 chunks, got %d", f.Footer().NumChunks())
		}
		for g := 0; g < 3; g++ {
			for c := 0; c < 3; c++ {
				got, err := f.ReadChunk(g, c)
				if err != nil {
					t.Fatalf("ReadChunk(%d,%d): %v", g, c, err)
				}
				if !reflect.DeepEqual(got, want[g][c]) {
					t.Fatalf("opts %+v chunk (%d,%d) mismatch", opts, g, c)
				}
			}
		}
	}
}

func TestReadColumnSpansRowGroups(t *testing.T) {
	data, want := buildTestFile(t, DefaultWriterOptions(), 4, 50)
	f, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	col, err := f.ReadColumn(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Ints) != 200 {
		t.Fatalf("want 200 values, got %d", len(col.Ints))
	}
	for g := 0; g < 4; g++ {
		if !reflect.DeepEqual(col.Ints[g*50:(g+1)*50], want[g][0].Ints) {
			t.Fatalf("row group %d values wrong", g)
		}
	}
	if _, err := f.ReadColumn(9); err == nil {
		t.Fatal("ReadColumn must reject out-of-range column")
	}
}

func TestStats(t *testing.T) {
	w := NewWriter(testSchema, DefaultWriterOptions())
	err := w.WriteRowGroup([]ColumnData{
		IntColumn([]int64{5, -3, 12}),
		FloatColumn([]float64{1.5, 0.5, 2.5}),
		StringColumn([]string{"mango", "apple", "zebra"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	f, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	ch := f.Footer().RowGroups[0].Chunks
	if ch[0].Stats.MinI != -3 || ch[0].Stats.MaxI != 12 {
		t.Fatalf("int stats wrong: %+v", ch[0].Stats)
	}
	if ch[1].Stats.MinF != 0.5 || ch[1].Stats.MaxF != 2.5 {
		t.Fatalf("float stats wrong: %+v", ch[1].Stats)
	}
	if ch[2].Stats.MinS != "apple" || ch[2].Stats.MaxS != "zebra" {
		t.Fatalf("string stats wrong: %+v", ch[2].Stats)
	}
}

func TestDistinctEstRoundTrip(t *testing.T) {
	ids := make([]int64, 5000)
	floats := make([]float64, 5000)
	strs := make([]string, 5000)
	for i := range ids {
		ids[i] = int64(i % 7) // 7 distinct
		floats[i] = float64(i)
		strs[i] = fmt.Sprintf("s%d", i%3)
	}
	w := NewWriter(testSchema, DefaultWriterOptions())
	if err := w.WriteRowGroup([]ColumnData{IntColumn(ids), FloatColumn(floats), StringColumn(strs)}); err != nil {
		t.Fatal(err)
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	f, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	ch := f.Footer().RowGroups[0].Chunks
	if got := ch[0].Stats.DistinctEst; got != 7 {
		t.Fatalf("int DistinctEst = %d, want 7", got)
	}
	if got := ch[1].Stats.DistinctEst; got != DistinctCap+1 {
		t.Fatalf("float DistinctEst = %d, want saturated %d", got, DistinctCap+1)
	}
	if got := ch[2].Stats.DistinctEst; got != 3 {
		t.Fatalf("string DistinctEst = %d, want 3", got)
	}
}

func TestLongStringStatsStayBounds(t *testing.T) {
	long := strings.Repeat("z", 200)
	w := NewWriter([]Column{{Name: "s", Type: String}}, DefaultWriterOptions())
	if err := w.WriteRowGroup([]ColumnData{StringColumn([]string{"a", long})}); err != nil {
		t.Fatal(err)
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	f, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	st := f.Footer().RowGroups[0].Chunks[0].Stats
	if st.MinS > "a" {
		t.Fatal("min must remain a lower bound")
	}
	if st.MaxS < long {
		t.Fatal("truncated max must remain an upper bound")
	}
	if len(st.MaxS) > 70 {
		t.Fatalf("max stat must be bounded, got %d bytes", len(st.MaxS))
	}
}

func TestDictionaryEncodingChosenForRepetitive(t *testing.T) {
	vals := make([]string, 10000)
	for i := range vals {
		vals[i] = fmt.Sprintf("status-%d", i%4)
	}
	w := NewWriter([]Column{{Name: "s", Type: String}}, WriterOptions{Compress: false})
	if err := w.WriteRowGroup([]ColumnData{StringColumn(vals)}); err != nil {
		t.Fatal(err)
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	f, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	m := f.Footer().RowGroups[0].Chunks[0]
	if m.Encoding != colenc.Dict {
		t.Fatalf("repetitive column must dictionary-encode, got %v", m.Encoding)
	}
	if m.Compressibility() < 10 {
		t.Fatalf("repetitive column compressibility too low: %v", m.Compressibility())
	}
	got, err := f.ReadChunk(0, 0)
	if err != nil || !reflect.DeepEqual(got.Strings, vals) {
		t.Fatalf("dict decode failed: %v", err)
	}
}

func TestPlainChosenForHighCardinality(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = rng.Int63()
	}
	w := NewWriter([]Column{{Name: "v", Type: Int64}}, WriterOptions{Compress: false})
	if err := w.WriteRowGroup([]ColumnData{IntColumn(vals)}); err != nil {
		t.Fatal(err)
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	f, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if enc := f.Footer().RowGroups[0].Chunks[0].Encoding; enc != colenc.Plain {
		t.Fatalf("unique values must stay plain, got %v", enc)
	}
}

func TestWriterErrors(t *testing.T) {
	w := NewWriter(testSchema, DefaultWriterOptions())
	if err := w.WriteRowGroup(nil); err == nil {
		t.Fatal("must reject wrong column count")
	}
	if err := w.WriteRowGroup([]ColumnData{IntColumn(nil), FloatColumn(nil), StringColumn(nil)}); err == nil {
		t.Fatal("must reject empty row group")
	}
	bad := []ColumnData{IntColumn([]int64{1}), FloatColumn([]float64{1, 2}), StringColumn([]string{"x"})}
	if err := w.WriteRowGroup(bad); err == nil {
		t.Fatal("must reject mismatched row counts")
	}
	wrongType := []ColumnData{FloatColumn([]float64{1}), FloatColumn([]float64{1}), StringColumn([]string{"x"})}
	if err := w.WriteRowGroup(wrongType); err == nil {
		t.Fatal("must reject type mismatch")
	}
	if _, err := w.Finish(); err == nil {
		t.Fatal("Finish with no row groups must fail")
	}
	if _, err := w.Finish(); err == nil {
		t.Fatal("double Finish must fail")
	}
	if err := w.WriteRowGroup(bad); err == nil {
		t.Fatal("write after Finish must fail")
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("XXXXthis is not an lpq fileXXXX"),
		append([]byte(Magic), []byte("tail without footer or magic")...),
	}
	for i, c := range cases {
		if _, err := Open(c); err == nil {
			t.Errorf("case %d: Open must fail", i)
		}
	}
	// Valid file with a corrupted footer-length word.
	data, _ := buildTestFile(t, DefaultWriterOptions(), 1, 10)
	data[len(data)-5] ^= 0xff
	if _, err := Open(data); err == nil {
		t.Fatal("Open must reject corrupted footer length")
	}
}

func TestChunkChecksumDetectsCorruption(t *testing.T) {
	data, _ := buildTestFile(t, DefaultWriterOptions(), 1, 100)
	f, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	m := f.Footer().RowGroups[0].Chunks[0]
	data[m.Offset+2] ^= 0x55
	if _, err := f.ReadChunk(0, 0); err == nil {
		t.Fatal("ReadChunk must detect corrupted chunk bytes")
	}
}

func TestDecodeChunkStandalone(t *testing.T) {
	// Storage nodes decode chunks with only bytes + metadata.
	data, want := buildTestFile(t, DefaultWriterOptions(), 2, 64)
	f, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	m := f.Footer().RowGroups[1].Chunks[2]
	raw := append([]byte(nil), data[m.Offset:m.Offset+m.Size]...)
	got, err := DecodeChunk(String, m, raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Strings, want[1][2].Strings) {
		t.Fatal("standalone decode mismatch")
	}
	// Wrong size must fail.
	if _, err := DecodeChunk(String, m, raw[:len(raw)-1]); err == nil {
		t.Fatal("must reject truncated chunk")
	}
}

func TestFooterSize(t *testing.T) {
	data, _ := buildTestFile(t, DefaultWriterOptions(), 2, 10)
	n, err := FooterSize(data)
	if err != nil {
		t.Fatal(err)
	}
	if n <= len(Magic)+4 || n >= len(data) {
		t.Fatalf("implausible footer size %d of %d", n, len(data))
	}
	// Everything before the footer must be chunk data + leading magic.
	f, _ := Open(data)
	last := f.Footer().RowGroups[1].Chunks[2]
	if uint64(len(data)-n) != last.Offset+last.Size {
		t.Fatalf("footer must start right after the last chunk")
	}
}

func TestFooterRoundTripProperty(t *testing.T) {
	f := func(nRows uint8, seed int64) bool {
		rows := int(nRows%50) + 1
		rng := rand.New(rand.NewSource(seed))
		w := NewWriter(testSchema, DefaultWriterOptions())
		ids := make([]int64, rows)
		fs := make([]float64, rows)
		ss := make([]string, rows)
		for i := 0; i < rows; i++ {
			ids[i] = rng.Int63n(1000)
			fs[i] = rng.Float64()
			ss[i] = fmt.Sprintf("s%d", rng.Intn(5))
		}
		if err := w.WriteRowGroup([]ColumnData{IntColumn(ids), FloatColumn(fs), StringColumn(ss)}); err != nil {
			return false
		}
		data, err := w.Finish()
		if err != nil {
			return false
		}
		f2, err := Open(data)
		if err != nil {
			return false
		}
		got, err := f2.ReadChunk(0, 0)
		return err == nil && reflect.DeepEqual(got.Ints, ids)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestColumnIndex(t *testing.T) {
	f := &Footer{Columns: testSchema}
	if f.ColumnIndex("price") != 1 {
		t.Fatal("ColumnIndex(price) must be 1")
	}
	if f.ColumnIndex("nope") != -1 {
		t.Fatal("missing column must return -1")
	}
}

func TestChunkSizes(t *testing.T) {
	data, _ := buildTestFile(t, DefaultWriterOptions(), 2, 30)
	f, _ := Open(data)
	sizes := f.Footer().ChunkSizes()
	if len(sizes) != 6 {
		t.Fatalf("want 6 sizes, got %d", len(sizes))
	}
	for i, s := range sizes {
		if s == 0 {
			t.Fatalf("chunk %d has zero size", i)
		}
	}
}

func TestTypeString(t *testing.T) {
	if Int64.String() != "INT64" || Float64.String() != "FLOAT64" || String.String() != "STRING" {
		t.Fatal("Type.String wrong")
	}
}

func TestPageStructureRoundTrip(t *testing.T) {
	// Chunks are paged (Fig. 3: dictionary page + data pages); values must
	// round-trip across page boundaries for every type and page size.
	for _, pageRows := range []int{1, 7, 100, 1 << 20} {
		opts := DefaultWriterOptions()
		opts.PageRows = pageRows
		data, want := buildTestFile(t, opts, 2, 333)
		f, err := Open(data)
		if err != nil {
			t.Fatalf("pageRows %d: %v", pageRows, err)
		}
		for g := 0; g < 2; g++ {
			for c := 0; c < 3; c++ {
				got, err := f.ReadChunk(g, c)
				if err != nil {
					t.Fatalf("pageRows %d chunk (%d,%d): %v", pageRows, g, c, err)
				}
				if !reflect.DeepEqual(got, want[g][c]) {
					t.Fatalf("pageRows %d chunk (%d,%d) mismatch", pageRows, g, c)
				}
			}
		}
	}
}

func TestPageCountScalesWithPageRows(t *testing.T) {
	// The content stays identical whatever the page size; sanity check that
	// page splitting actually happens, in every kind of chunk. (The bytes say
	// nothing: page headers add some, a frame per page can save more.)
	for pageRows, wantPages := range map[int]int{10: 50, 1 << 20: 1} {
		opts := DefaultWriterOptions()
		opts.PageRows = pageRows
		data, _ := buildTestFile(t, opts, 1, 500)
		f, err := Open(data)
		if err != nil {
			t.Fatal(err)
		}
		for col, m := range f.Footer().RowGroups[0].Chunks {
			raw, err := f.ChunkBytes(0, col)
			if err != nil {
				t.Fatal(err)
			}
			c, err := OpenChunk(f.Footer().Columns[col].Type, m, raw)
			if err != nil {
				t.Fatal(err)
			}
			if len(c.pages) != wantPages {
				t.Fatalf("%d-row pages: column %d (%v) has %d pages, want %d", pageRows, col, m.Encoding, len(c.pages), wantPages)
			}
			c.Release()
		}
	}
}
