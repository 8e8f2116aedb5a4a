package lpq

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"github.com/fusionstore/fusion/internal/colenc"
	"github.com/fusionstore/fusion/internal/snappy"
)

// ColumnData holds the values of one column for one row group. Exactly the
// slice matching Type is populated.
type ColumnData struct {
	Type    Type
	Ints    []int64
	Floats  []float64
	Strings []string
}

// Len returns the number of values.
func (c ColumnData) Len() int {
	switch c.Type {
	case Int64:
		return len(c.Ints)
	case Float64:
		return len(c.Floats)
	default:
		return len(c.Strings)
	}
}

// MakeColumn returns a column of n zero values of type t.
func MakeColumn(t Type, n int) ColumnData {
	c := ColumnData{Type: t}
	switch t {
	case Int64:
		c.Ints = make([]int64, n)
	case Float64:
		c.Floats = make([]float64, n)
	default:
		c.Strings = make([]string, n)
	}
	return c
}

// Window returns rows [off, off+n) of c as a window to append into: zero
// length, capacity n, so n appended values land in c's own memory and one more
// would move the window away instead of overwriting row off+n.
func (c ColumnData) Window(off, n int) ColumnData {
	switch c.Type {
	case Int64:
		c.Ints = c.Ints[off : off : off+n]
	case Float64:
		c.Floats = c.Floats[off : off : off+n]
	default:
		c.Strings = c.Strings[off : off : off+n]
	}
	return c
}

// IntColumn, FloatColumn and StringColumn are ColumnData constructors.
func IntColumn(vals []int64) ColumnData     { return ColumnData{Type: Int64, Ints: vals} }
func FloatColumn(vals []float64) ColumnData { return ColumnData{Type: Float64, Floats: vals} }
func StringColumn(vals []string) ColumnData { return ColumnData{Type: String, Strings: vals} }

// WriterOptions configure a Writer.
type WriterOptions struct {
	// Compress enables Snappy compression of chunk blobs (the paper's
	// datasets have dictionary encoding and Snappy enabled, §6).
	Compress bool
	// DisableDict forces plain encoding (the Albis-style configuration).
	DisableDict bool
	// PageRows is the number of values per data page within a chunk
	// (Fig. 3: a chunk is a dictionary page followed by encoded data
	// pages). Default 20000.
	PageRows int
}

// DefaultWriterOptions matches the paper's file generation: dictionary
// encoding and Snappy compression enabled.
func DefaultWriterOptions() WriterOptions {
	return WriterOptions{Compress: true, PageRows: 20000}
}

// Writer builds an lpq file in memory, one row group at a time.
type Writer struct {
	schema []Column
	opts   WriterOptions
	buf    []byte
	footer Footer
	done   bool
}

// NewWriter returns a Writer for the given schema.
func NewWriter(schema []Column, opts WriterOptions) *Writer {
	if opts.PageRows <= 0 {
		opts.PageRows = 20000
	}
	w := &Writer{schema: schema, opts: opts}
	w.buf = append(w.buf, Magic...)
	w.footer.Columns = append([]Column(nil), schema...)
	return w
}

// WriteRowGroup appends one row group. cols must match the schema in length,
// order and type, and all columns must have the same number of values.
func (w *Writer) WriteRowGroup(cols []ColumnData) error {
	if w.done {
		return fmt.Errorf("lpq: writer already finished")
	}
	if len(cols) != len(w.schema) {
		return fmt.Errorf("lpq: row group has %d columns, schema has %d", len(cols), len(w.schema))
	}
	numRows := -1
	for i, c := range cols {
		if c.Type != w.schema[i].Type {
			return fmt.Errorf("lpq: column %d type %v does not match schema %v", i, c.Type, w.schema[i].Type)
		}
		if numRows < 0 {
			numRows = c.Len()
		} else if c.Len() != numRows {
			return fmt.Errorf("lpq: column %d has %d rows, want %d", i, c.Len(), numRows)
		}
	}
	if numRows == 0 {
		return fmt.Errorf("lpq: empty row group")
	}
	if numRows > MaxChunkRows {
		return fmt.Errorf("lpq: row group has %d rows, the format allows %d", numRows, MaxChunkRows)
	}
	rg := RowGroup{NumRows: numRows}
	for _, c := range cols {
		meta, blob := encodeChunk(c, w.opts)
		meta.Offset = uint64(len(w.buf))
		w.buf = append(w.buf, blob...)
		rg.Chunks = append(rg.Chunks, meta)
	}
	w.footer.RowGroups = append(w.footer.RowGroups, rg)
	return nil
}

// Finish appends the footer and returns the complete file bytes. The Writer
// must not be used afterwards.
func (w *Writer) Finish() ([]byte, error) {
	if w.done {
		return nil, fmt.Errorf("lpq: writer already finished")
	}
	if len(w.footer.RowGroups) == 0 {
		return nil, fmt.Errorf("lpq: no row groups written")
	}
	w.done = true
	fb := EncodeFooter(&w.footer)
	w.buf = append(w.buf, fb...)
	e := &encBuf{b: w.buf}
	e.u32(uint32(len(fb)))
	w.buf = append(e.b, Magic...)
	return w.buf, nil
}

// snappyMinSaving is the share of a chunk's encoded bytes Snappy has to save
// to be kept: below it a reader would run a decompression pass over the whole
// chunk, on every open, for next to nothing.
const snappyMinSaving = 0.20

// dictKeepShare: a frame-of-reference or decimal chunk replaces a dictionary
// chunk only when smaller by a 16th of it. On a near tie the dictionary stays:
// any predicate is one verdict per entry, a lone group key one per code.
const dictKeepShare = 16

// keepLimit is the size a frame-of-reference or decimal chunk must be under:
// raw, or the dictionary chunk chosen less a dictKeepShare-th.
func keepLimit(raw int, chosen []byte) int {
	if chosen == nil {
		return raw
	}
	return len(chosen) - len(chosen)/dictKeepShare
}

// encodeChunk encodes one column chunk into a self-contained blob and its
// metadata (offset left to the caller): pages of one kind, as in Fig. 3 of
// the paper, each kind's layout in its file. The kinds are tried in
// writeOrder (plain only under DisableDict), the last that beats its limit
// kept, and the blob then made one Snappy block if that saves
// snappyMinSaving of it and the kind allows it.
func encodeChunk(c ColumnData, opts WriterOptions) (ChunkMeta, []byte) {
	meta := ChunkMeta{NumValues: c.Len(), Stats: computeStats(c), RawSize: plainSize(c)}
	order := writeOrder[:]
	if opts.DisableDict {
		order = order[len(order)-1:]
	}
	var blob []byte
	for _, enc := range order {
		if k := kinds[enc]; k.holds(c.Type) {
			if b, ok := k.encode(c, opts.PageRows, int(meta.RawSize), blob); ok {
				blob, meta.Encoding = b, enc
			}
		}
	}
	if opts.Compress && kinds[meta.Encoding].snappy() {
		comp := snappy.Encode(blob)
		if float64(len(comp)) <= (1-snappyMinSaving)*float64(len(blob)) {
			meta.Compressed = true
			blob = comp
		}
	}
	meta.Size = uint64(len(blob))
	meta.CRC = crc32.ChecksumIEEE(blob)
	return meta, blob
}

// plainSize returns the size of c's values in plain form.
func plainSize(c ColumnData) uint64 {
	if c.Type != String {
		return 8 * uint64(c.Len())
	}
	var n uint64
	for _, s := range c.Strings {
		n += uint64(colenc.UvarintLen(uint64(len(s))) + len(s))
	}
	return n
}

// packedLen is the byte length of count values packed at width bits.
func packedLen(count, width int) int { return (count*width + 7) / 8 }

// pageHead appends the directory entry of a page of rows rows whose body,
// next, is size bytes: every page's but a dictionary's (dictPage).
func (e *encBuf) pageHead(rows, size int) {
	e.uvarint(uint64(rows))
	e.uvarint(uint64(size))
}

// endPage is pageHead for a page of rows rows whose body was appended from
// start on: it puts the entry in front of the body.
func (e *encBuf) endPage(start, rows int) {
	var buf [2 * binary.MaxVarintLen64]byte
	h := binary.AppendUvarint(buf[:0], uint64(rows))
	h = binary.AppendUvarint(h, uint64(len(e.b)-start))
	e.b = slices.Insert(e.b, start, h...)
}

func computeStats(c ColumnData) Stats {
	if c.Len() == 0 {
		return Stats{}
	}
	s := Stats{Valid: true}
	switch c.Type {
	case Int64:
		s.MinI, s.MaxI, s.DistinctEst = slices.Min(c.Ints), slices.Max(c.Ints), countDistinct(c.Ints)
	case Float64:
		// A NaN is invisible in min/max (every comparison with it is false)
		// and satisfies no predicate but !=, so bounds that ignore one would
		// let the planner answer for its row without reading the chunk: a
		// chunk holding a NaN has no valid statistics. Of the zeros, which
		// compare equal, the first is the bound.
		if slices.ContainsFunc(c.Floats, math.IsNaN) {
			return Stats{}
		}
		s.MinF, s.MaxF = slices.MinFunc(c.Floats, cmp.Compare[float64]), slices.MaxFunc(c.Floats, cmp.Compare[float64])
		s.DistinctEst = countDistinct(c.Floats)
	default:
		s.MinS, s.MaxS, s.DistinctEst = slices.Min(c.Strings), slices.Max(c.Strings), countDistinct(c.Strings)
		// Bound footer size for long strings.
		const statCap = 64
		if len(s.MinS) > statCap {
			s.MinS = s.MinS[:statCap]
		}
		if len(s.MaxS) > statCap {
			// Truncating a max requires bumping the last byte to keep it an
			// upper bound; appending 0xff is simpler and still correct.
			s.MaxS = s.MaxS[:statCap] + "\xff"
		}
	}
	return s
}

// countDistinct counts distinct values exactly up to DistinctCap, then
// saturates at DistinctCap+1 ("more than the cap"). The planner uses this
// to bound the number of groups a GROUP BY over the chunk can produce.
func countDistinct[T comparable](vals []T) uint32 {
	seen := make(map[T]struct{}, min(len(vals), DistinctCap))
	for _, v := range vals {
		seen[v] = struct{}{}
		if len(seen) > DistinctCap {
			return DistinctCap + 1
		}
	}
	return uint32(len(seen))
}
