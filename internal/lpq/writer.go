package lpq

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"github.com/fusionstore/fusion/internal/colenc"
	"github.com/fusionstore/fusion/internal/fsst"
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
	// DictMaxFraction caps dictionary size relative to value count;
	// above it the writer falls back to plain. Default 0.5.
	DictMaxFraction float64
	// PageRows is the number of values per data page within a chunk
	// (Fig. 3: a chunk is a dictionary page followed by encoded data
	// pages). Default 20000.
	PageRows int
}

// DefaultWriterOptions matches the paper's file generation: dictionary
// encoding and Snappy compression enabled.
func DefaultWriterOptions() WriterOptions {
	return WriterOptions{Compress: true, DictMaxFraction: 0.5, PageRows: 20000}
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
	if opts.DictMaxFraction == 0 {
		opts.DictMaxFraction = 0.5
	}
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
	fb := encodeFooter(&w.footer)
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

// dictKeepShare is how much smaller than a dictionary chunk a
// frame-of-reference or decimal chunk has to be to replace it (1/16 of the
// dictionary chunk's bytes). On a near tie the dictionary stays: its codes
// serve more kernels than offsets do — any predicate is one verdict per entry,
// and a lone grouping key resolves its group once per code.
const dictKeepShare = 16

// decimalScales are the powers of ten a decimal chunk may scale by. A chunk's
// header names its scale by index, so the order is part of the format.
var decimalScales = [...]float64{1, 10, 100, 1000, 10000}

// encodeChunk encodes one column chunk into a self-contained blob and its
// metadata (offset left to the caller). A chunk is a sequence of pages, as
// in Fig. 3 of the paper: dictionary-encoded chunks carry one dictionary
// page followed by encoded data pages; the other kinds carry data pages only.
//
// Blob layout (before optional Snappy):
//
//	[encoding byte]
//	Plain:   uvarint numPages,
//	         per page: uvarint rowCount, uvarint byteLen, plain values
//	Dict:    uvarint dictLen, plain-encoded dict values,   // dictionary page
//	         uvarint numPages,
//	         per page: uvarint rowCount, codes-encoding byte,
//	                   uvarint byteLen, encoded codes
//	FOR:     uvarint numPages,                             // Int64 only
//	         per page: uvarint rowCount, uvarint byteLen,
//	                   int64 base, byte width, offsets packed at width
//	Decimal: byte scale (index into decimalScales),        // Float64 only
//	         uvarint numPages,
//	         per page: uvarint rowCount, uvarint byteLen,
//	                   int64 base, byte width (| 0x80: corrected),
//	                   uvarint numEscapes, a code per row packed at width+2:
//	                   offset<<2 | correction (exact, +1 ulp, -1 ulp, or
//	                   escape, whose offset is its index in the raw list), then
//	                   the escapes' values, 8 raw bytes each; a page of exact
//	                   rows only is not corrected: its codes are the offsets,
//	                   packed at width, and it has no escapes
//	FSST:    uvarint numSymbols (at most 255),               // String only
//	         per symbol: byte length (1 to 8), its bytes,
//	         uvarint numPages,
//	         per page: uvarint rowCount, uvarint byteLen,
//	                   per value: uvarint codesLen, its FSST code string
//
// The writer picks the smallest form: plain, or — unless DisableDict asks for
// plain only — a dictionary, or a frame of reference (Int64) or scaled decimal
// (Float64) when that is smaller than the dictionary chunk by more than a
// dictKeepShare-th. The whole blob is then one Snappy block if Snappy saves
// snappyMinSaving of it. A String chunk with no dictionary is FSST instead of
// plain (plain only under DisableDict), and an FSST chunk is never
// Snappy-compressed: a reader runs no Snappy pass over it, and a kernel
// decodes only the rows it selects.
func encodeChunk(c ColumnData, opts WriterOptions) (ChunkMeta, []byte) {
	var meta ChunkMeta
	meta.NumValues = c.Len()
	meta.Stats = computeStats(c)
	meta.RawSize = plainSize(c)

	var blob []byte
	if !opts.DisableDict {
		// Each attempt reports failure unless it beats the plain form.
		var ok bool
		if blob, ok = tryDictEncode(c, opts, int(meta.RawSize)); ok {
			meta.Encoding = colenc.Dict
		}
		limit := int(meta.RawSize)
		if ok {
			limit = len(blob) - len(blob)/dictKeepShare
		}
		switch c.Type {
		case Int64:
			if b, ok := tryFrameEncode(c.Ints, opts.PageRows, limit); ok {
				blob, meta.Encoding = b, colenc.FOR
			}
		case Float64:
			if b, ok := tryDecimalEncode(c.Floats, opts.PageRows, limit); ok {
				blob, meta.Encoding = b, colenc.Decimal
			}
		}
	}
	switch {
	case blob != nil:
	case c.Type == String && !opts.DisableDict:
		meta.Encoding = colenc.FSST
		blob = encodeFSSTPages(c.Strings, opts.PageRows)
	default:
		meta.Encoding = colenc.Plain
		blob = encodePlainPages(c, opts.PageRows)
	}

	if opts.Compress && meta.Encoding != colenc.FSST {
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

// encodePlainPages lays a chunk out as plain data pages.
func encodePlainPages(c ColumnData, pageRows int) []byte {
	e := &encBuf{b: []byte{byte(colenc.Plain)}}
	n := c.Len()
	numPages := (n + pageRows - 1) / pageRows
	e.uvarint(uint64(numPages))
	for start := 0; start < n; start += pageRows {
		end := min(start+pageRows, n)
		var body []byte
		switch c.Type {
		case Int64:
			body = colenc.PutInt64s(nil, c.Ints[start:end])
		case Float64:
			body = colenc.PutFloat64s(nil, c.Floats[start:end])
		default:
			body = colenc.PutStrings(nil, c.Strings[start:end])
		}
		e.uvarint(uint64(end - start))
		e.uvarint(uint64(len(body)))
		e.b = append(e.b, body...)
	}
	return e.b
}

// encodeFSSTPages lays vals out as FSST pages under one symbol table, built
// from a sample of vals.
func encodeFSSTPages(vals []string, pageRows int) []byte {
	table := fsst.Build(vals)
	e := &encBuf{b: table.AppendTable([]byte{byte(colenc.FSST)})}
	e.uvarint(uint64((len(vals) + pageRows - 1) / pageRows))
	var body, codes []byte
	for start := 0; start < len(vals); start += pageRows {
		body = body[:0]
		for _, v := range vals[start:min(start+pageRows, len(vals))] {
			codes = table.Encode(codes[:0], v)
			body = append(binary.AppendUvarint(body, uint64(len(codes))), codes...)
		}
		e.uvarint(uint64(min(pageRows, len(vals)-start)))
		e.uvarint(uint64(len(body)))
		e.b = append(e.b, body...)
	}
	return e.b
}

// tryDictEncode attempts dictionary encoding; it reports success only when
// the dictionary is small relative to the value count and the encoding is
// actually smaller than plain. The result is one dictionary page followed
// by bit-packed or run-length-encoded data pages.
func tryDictEncode(c ColumnData, opts WriterOptions, rawLen int) ([]byte, bool) {
	var (
		dictBytes []byte
		codes     []uint64
		dictLen   int
	)
	maxFraction := opts.DictMaxFraction
	switch c.Type {
	case Int64:
		dict, cs := colenc.BuildDict(c.Ints)
		if float64(len(dict)) > maxFraction*float64(len(c.Ints)) {
			return nil, false
		}
		dictBytes = colenc.PutInt64s(nil, dict)
		codes, dictLen = cs, len(dict)
	case Float64:
		dict, cs := colenc.BuildFloatDict(c.Floats)
		if float64(len(dict)) > maxFraction*float64(len(c.Floats)) {
			return nil, false
		}
		dictBytes = colenc.PutFloat64s(nil, dict)
		codes, dictLen = cs, len(dict)
	default:
		dict, cs := colenc.BuildDict(c.Strings)
		if float64(len(dict)) > maxFraction*float64(len(c.Strings)) {
			return nil, false
		}
		dictBytes = colenc.PutStrings(nil, dict)
		codes, dictLen = cs, len(dict)
	}
	maxCode := uint64(0)
	if dictLen > 0 {
		maxCode = uint64(dictLen - 1)
	}
	e := &encBuf{b: []byte{byte(colenc.Dict)}}
	e.uvarint(uint64(dictLen))
	e.b = append(e.b, dictBytes...)
	n := len(codes)
	numPages := (n + opts.PageRows - 1) / opts.PageRows
	e.uvarint(uint64(numPages))
	for start := 0; start < n; start += opts.PageRows {
		end := min(start+opts.PageRows, n)
		codesEnc, codesBytes := colenc.CodesEncoding(codes[start:end], maxCode)
		e.uvarint(uint64(end - start))
		e.byteVal(byte(codesEnc))
		e.uvarint(uint64(len(codesBytes)))
		e.b = append(e.b, codesBytes...)
	}
	if len(e.b) >= rawLen+1 {
		return nil, false // dict encoding did not help
	}
	return e.b, true
}

// packedLen is the byte length of count values packed at width bits.
func packedLen(count, width int) int { return (count*width + 7) / 8 }

// tryFrameEncode lays vals out as frame-of-reference pages. It reports failure
// when some page's values span more than colenc.MaxFrameWidth bits or the
// chunk would not be smaller than limit bytes.
func tryFrameEncode(vals []int64, pageRows, limit int) ([]byte, bool) {
	e := &encBuf{b: []byte{byte(colenc.FOR)}}
	e.uvarint(uint64((len(vals) + pageRows - 1) / pageRows))
	for start := 0; start < len(vals); start += pageRows {
		page := vals[start:min(start+pageRows, len(vals))]
		lo, hi := page[0], page[0]
		for _, v := range page[1:] {
			lo, hi = min(lo, v), max(hi, v)
		}
		base, width, ok := colenc.Frame(lo, hi)
		if !ok || len(e.b)+packedLen(len(page), width) >= limit {
			return nil, false
		}
		e.uvarint(uint64(len(page)))
		e.uvarint(uint64(9 + packedLen(len(page), width)))
		e.i64(base)
		e.byteVal(byte(width))
		e.b = colenc.PackOffsets(e.b, page, base, width)
	}
	return e.b, len(e.b) < limit
}

// Corrections, the low corrBits bits of a decimal row's code: how v's bits
// differ from those of float64(i)/scale, i its integer — not at all, by one
// ulp up or down — or an escape, whose offset field indexes the page's raw
// values.
const (
	corrExact  = 0
	corrUp     = 1
	corrDown   = 2
	corrEscape = 3
	corrBits   = 2
)

// ulpDelta is what a correction adds to the bits of float64(i)/scale, modulo
// 2^64; an escape's entry is never used.
var ulpDelta = [4]uint64{corrExact: 0, corrUp: 1, corrDown: ^uint64(0)}

// corrected, set in a decimal page's width byte, says that each of its codes
// carries a two-bit correction below its offset. A page whose rows are all
// exact packs bare offsets, as a frame of reference does, and has no escapes.
const corrected = 0x80

// decimalCode returns v scaled to an integer and the correction that gives
// back v's bits from float64(i)/scale, or corrEscape when none does: a NaN, an
// infinity, a negative zero, a product of 2^53 and beyond, or a value two ulps
// or more away. Readers divide, so the test divides: multiplying by 1/scale
// recovers fewer values.
func decimalCode(v, scale float64) (int64, uint64) {
	x := math.RoundToEven(v * scale)
	if !(math.Abs(x) < 1<<53) {
		return 0, corrEscape
	}
	i := int64(x)
	switch math.Float64bits(v) - math.Float64bits(float64(i)/scale) {
	case 0:
		return i, corrExact
	case 1:
		return i, corrUp
	case ^uint64(0):
		return i, corrDown
	}
	return 0, corrEscape
}

// decimalPage is the shape of one decimal page: the frame of its rows'
// integers, widened where it must be for the offset field to index every
// escape, the bits of correction below each offset (corrBits, or 0 when every
// row is exact) and how many of its rows escape.
type decimalPage struct {
	base    int64
	width   int
	corr    int
	escapes int
}

// planDecimalPage frames vals at scale; ok is false when a code, offset and
// correction, would take more than colenc.MaxFrameWidth bits.
func planDecimalPage(vals []float64, scale float64) (p decimalPage, ok bool) {
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, v := range vals {
		i, corr := decimalCode(v, scale)
		if corr != corrExact {
			p.corr = corrBits
		}
		if corr == corrEscape {
			p.escapes++
		} else {
			lo, hi = min(lo, i), max(hi, i)
		}
	}
	if p.escapes < len(vals) {
		if p.base, p.width, ok = colenc.Frame(lo, hi); !ok || p.width+p.corr > colenc.MaxFrameWidth {
			return p, false
		}
	}
	p.width = max(p.width, colenc.BitWidth(uint64(max(p.escapes-1, 0))))
	return p, true
}

// bodyLen is the byte length of the page's body for rows rows: the offset
// width plus the correction's bits a row, and 8 bytes an escape.
func (p decimalPage) bodyLen(rows int) int {
	return 9 + colenc.UvarintLen(uint64(p.escapes)) + packedLen(rows, p.width+p.corr) + 8*p.escapes
}

// appendHeader appends the page's header for rows rows: its row and byte
// counts, base, width byte and escape count.
func (p decimalPage) appendHeader(e *encBuf, rows int) {
	e.uvarint(uint64(rows))
	e.uvarint(uint64(p.bodyLen(rows)))
	e.i64(p.base)
	if p.corr != 0 {
		e.byteVal(byte(p.width) | corrected)
	} else {
		e.byteVal(byte(p.width))
	}
	e.uvarint(uint64(p.escapes))
}

// planDecimalPages frames every page of vals at scale. It returns the pages,
// the bytes their bodies take and how many rows escape; ok is false when a
// page cannot be framed or the bodies reach limit bytes.
func planDecimalPages(vals []float64, scale float64, pageRows, limit int) (pages []decimalPage, size, escapes int, ok bool) {
	for start := 0; start < len(vals); start += pageRows {
		page := vals[start:min(start+pageRows, len(vals))]
		p, framed := planDecimalPage(page, scale)
		if !framed {
			return nil, 0, 0, false
		}
		if size += p.bodyLen(len(page)); size >= limit {
			return nil, 0, 0, false
		}
		pages = append(pages, p)
		escapes += p.escapes
	}
	return pages, size, escapes, true
}

// tryDecimalEncode lays vals out as decimal pages at the scale of
// decimalScales that makes the chunk smallest. It reports failure when no
// scale makes it smaller than limit bytes.
func tryDecimalEncode(vals []float64, pageRows, limit int) ([]byte, bool) {
	var best []decimalPage
	bestScale, bestLen := 0, limit
	for si, scale := range decimalScales {
		pages, size, escapes, ok := planDecimalPages(vals, scale, pageRows, bestLen)
		if !ok {
			continue
		}
		best, bestScale, bestLen = pages, si, size
		if escapes == 0 {
			break // a larger scale would only widen the same integers
		}
	}
	if best == nil {
		return nil, false
	}
	e := &encBuf{b: []byte{byte(colenc.Decimal), byte(bestScale)}}
	e.uvarint(uint64(len(best)))
	scale := decimalScales[bestScale]
	codes := make([]uint64, min(pageRows, len(vals)))
	for pi, p := range best {
		page := vals[pi*pageRows : min((pi+1)*pageRows, len(vals))]
		p.appendHeader(e, len(page))
		raw := make([]byte, 0, 8*p.escapes)
		for r, v := range page {
			i, corr := decimalCode(v, scale)
			off := uint64(i) - uint64(p.base)
			if corr == corrEscape {
				off = uint64(len(raw) / 8)
				raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
			}
			codes[r] = off<<p.corr | corr
		}
		e.b = colenc.PackUints(e.b, codes[:len(page)], p.width+p.corr)
		e.b = append(e.b, raw...)
	}
	return e.b, len(e.b) < limit
}

func computeStats(c ColumnData) Stats {
	s := Stats{}
	switch c.Type {
	case Int64:
		if len(c.Ints) == 0 {
			return s
		}
		s.Valid = true
		s.MinI, s.MaxI = c.Ints[0], c.Ints[0]
		for _, v := range c.Ints[1:] {
			if v < s.MinI {
				s.MinI = v
			}
			if v > s.MaxI {
				s.MaxI = v
			}
		}
		s.DistinctEst = countDistinct(c.Ints)
	case Float64:
		if len(c.Floats) == 0 {
			return s
		}
		// A NaN is invisible in min/max (every comparison with it is false)
		// and satisfies no predicate but !=, so bounds that ignore one would
		// let the planner answer for its row without reading the chunk: a
		// chunk holding a NaN has no valid statistics.
		s.Valid = true
		s.MinF, s.MaxF = c.Floats[0], c.Floats[0]
		for _, v := range c.Floats {
			if v != v {
				return Stats{}
			}
			if v < s.MinF {
				s.MinF = v
			}
			if v > s.MaxF {
				s.MaxF = v
			}
		}
		s.DistinctEst = countDistinct(c.Floats)
	default:
		if len(c.Strings) == 0 {
			return s
		}
		s.Valid = true
		s.MinS, s.MaxS = c.Strings[0], c.Strings[0]
		for _, v := range c.Strings[1:] {
			if v < s.MinS {
				s.MinS = v
			}
			if v > s.MaxS {
				s.MaxS = v
			}
		}
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
		s.DistinctEst = countDistinct(c.Strings)
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
