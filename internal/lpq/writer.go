package lpq

import (
	"fmt"
	"hash/crc32"

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

// encodeChunk encodes one column chunk into a self-contained blob and its
// metadata (offset left to the caller). A chunk is a sequence of pages, as
// in Fig. 3 of the paper: dictionary-encoded chunks carry one dictionary
// page followed by encoded data pages; plain chunks carry plain data pages.
//
// Blob layout (before optional Snappy):
//
//	[encoding byte]
//	Plain: uvarint numPages,
//	       per page: uvarint rowCount, uvarint byteLen, plain values
//	Dict:  uvarint dictLen, plain-encoded dict values,   // dictionary page
//	       uvarint numPages,
//	       per page: uvarint rowCount, codes-encoding byte,
//	                 uvarint byteLen, encoded codes
//
// If compressed, the whole blob is one Snappy block.
func encodeChunk(c ColumnData, opts WriterOptions) (ChunkMeta, []byte) {
	var meta ChunkMeta
	meta.NumValues = c.Len()
	meta.Stats = computeStats(c)

	// Raw (plain) representation; also the fallback encoding.
	var raw []byte
	switch c.Type {
	case Int64:
		raw = colenc.PutInt64s(nil, c.Ints)
	case Float64:
		raw = colenc.PutFloat64s(nil, c.Floats)
	default:
		raw = colenc.PutStrings(nil, c.Strings)
	}
	meta.RawSize = uint64(len(raw))

	var blob []byte
	useDict := false
	if !opts.DisableDict {
		blob, useDict = tryDictEncode(c, opts, len(raw))
	}
	if useDict {
		meta.Encoding = colenc.Dict
	} else {
		meta.Encoding = colenc.Plain
		blob = encodePlainPages(c, opts.PageRows)
	}

	if opts.Compress {
		comp := snappy.Encode(blob)
		if len(comp) < len(blob) {
			meta.Compressed = true
			blob = comp
		}
	}
	meta.Size = uint64(len(blob))
	meta.CRC = crc32.ChecksumIEEE(blob)
	return meta, blob
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
		s.Valid = true
		s.MinF, s.MaxF = c.Floats[0], c.Floats[0]
		for _, v := range c.Floats[1:] {
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
