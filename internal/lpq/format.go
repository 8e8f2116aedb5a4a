// Package lpq implements "lakeshore parquet", a from-scratch PAX columnar
// file format with the structure the Fusion paper depends on (§2, Fig. 3):
// a table is horizontally partitioned into row groups, each row group is
// vertically partitioned into column chunks laid out contiguously, and each
// column chunk is a self-contained unit of encoding and compression — the
// smallest computable unit. A footer records per-chunk byte ranges, sizes
// and min/max statistics, enabling both FAC stripe construction (chunk
// boundaries) and row-group pruning at query time.
//
// lpq is not wire-compatible with Apache Parquet, but is structurally
// equivalent at the granularity that matters to the paper: variable-sized,
// independently decodable column chunks with footer metadata.
package lpq

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/fusionstore/fusion/internal/colenc"
)

// Magic brackets every lpq file: it opens the file and closes the footer.
const Magic = "LPQ1"

// Type is the logical type of a column.
type Type uint8

const (
	// Int64 covers integers, dates (days since epoch) and decimals scaled
	// to integers.
	Int64 Type = iota
	// Float64 covers floating-point values.
	Float64
	// String covers variable-length byte strings.
	String
)

func (t Type) String() string {
	switch t {
	case Int64:
		return "INT64"
	case Float64:
		return "FLOAT64"
	case String:
		return "STRING"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Column describes one column of the schema.
type Column struct {
	Name string
	Type Type
}

// Stats holds min/max statistics for a column chunk, used for row-group
// pruning during the filter stage (§5 "Querying Objects").
type Stats struct {
	Valid bool
	// MinI/MaxI are set for Int64 columns, MinF/MaxF for Float64,
	// MinS/MaxS for String.
	MinI, MaxI int64
	MinF, MaxF float64
	MinS, MaxS string
	// DistinctEst estimates the chunk's distinct-value count for the
	// stats-driven planner: exact when <= DistinctCap, DistinctCap+1
	// meaning "more than the cap", and 0 meaning "not computed" (files
	// written before this field existed).
	DistinctEst uint32
}

// DistinctCap bounds the per-chunk distinct counting the writer performs;
// beyond it DistinctEst saturates at DistinctCap+1.
const DistinctCap = 4096

// ChunkMeta locates and describes one column chunk within the file.
type ChunkMeta struct {
	// Offset and Size give the chunk's byte range in the file.
	Offset uint64
	Size   uint64
	// RawSize is the size of the chunk's values in plain (uncompressed,
	// unencoded) form. RawSize/Size is the chunk's compressibility, the
	// quantity in the pushdown cost model (§4.3).
	RawSize uint64
	// NumValues is the number of rows in the chunk (== its row group's).
	NumValues int
	// Encoding is the kind of the chunk's pages: Plain, Dict, FOR (Int64),
	// Decimal (Float64) or FSST (String).
	Encoding colenc.Encoding
	// Compressed reports whether the chunk blob is Snappy-compressed: the
	// writer keeps Snappy only where it saves a fifth of the encoded bytes,
	// and never over FSST.
	Compressed bool
	// CRC is the CRC-32 (IEEE) of the on-disk chunk bytes.
	CRC uint32
	// Stats are the chunk's min/max statistics.
	Stats Stats
}

// Compressibility returns RawSize/Size, unclamped: 0 for a chunk with no raw
// bytes, and 1 for one with no stored bytes.
func (m ChunkMeta) Compressibility() float64 {
	if m.Size == 0 {
		return 1
	}
	return float64(m.RawSize) / float64(m.Size)
}

// RowGroup describes one row group: its row count and its column chunks in
// schema order.
type RowGroup struct {
	NumRows int
	Chunks  []ChunkMeta
}

// Footer is the file-level metadata: schema plus all row groups.
type Footer struct {
	Columns   []Column
	RowGroups []RowGroup
}

// NumChunks returns the total number of column chunks in the file.
func (f *Footer) NumChunks() int {
	n := 0
	for _, rg := range f.RowGroups {
		n += len(rg.Chunks)
	}
	return n
}

// NumRows returns the total number of rows in the file.
func (f *Footer) NumRows() int {
	n := 0
	for _, rg := range f.RowGroups {
		n += rg.NumRows
	}
	return n
}

// ColumnIndex returns the index of the named column, or -1.
func (f *Footer) ColumnIndex(name string) int {
	for i, c := range f.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// ChunkSizes returns the on-disk size of every chunk in file order — the
// input to FAC stripe construction.
func (f *Footer) ChunkSizes() []uint64 {
	sizes := make([]uint64, 0, f.NumChunks())
	for _, rg := range f.RowGroups {
		for _, c := range rg.Chunks {
			sizes = append(sizes, c.Size)
		}
	}
	return sizes
}

// ErrFormat reports a malformed lpq file.
var ErrFormat = errors.New("lpq: malformed file")

//
// Footer binary encoding. All integers are uvarints unless noted; the layout
// is length-prefixed at the end of the file:
//
//   [footer bytes][uint32 footer length][Magic]
//

type encBuf struct{ b []byte }

func (e *encBuf) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *encBuf) byteVal(v byte)   { e.b = append(e.b, v) }
func (e *encBuf) str(s string)     { e.uvarint(uint64(len(s))); e.b = append(e.b, s...) }
func (e *encBuf) u32(v uint32)     { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *encBuf) i64(v int64)      { e.b = binary.LittleEndian.AppendUint64(e.b, uint64(v)) }
func (e *encBuf) f64(v float64)    { e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v)) }
func (e *encBuf) boolVal(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.b = append(e.b, b)
}

type decBuf struct {
	b   []byte
	err error
}

func (d *decBuf) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = ErrFormat
		return 0
	}
	d.b = d.b[n:]
	return v
}

// varint reads a zigzag varint (binary.AppendVarint).
func (d *decBuf) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.err = ErrFormat
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decBuf) byteVal() byte {
	if d.err != nil || len(d.b) < 1 {
		d.err = ErrFormat
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decBuf) str() string {
	l := d.uvarint()
	if d.err != nil || uint64(len(d.b)) < l {
		d.err = ErrFormat
		return ""
	}
	s := string(d.b[:l])
	d.b = d.b[l:]
	return s
}

func (d *decBuf) u32() uint32 {
	if d.err != nil || len(d.b) < 4 {
		d.err = ErrFormat
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *decBuf) i64() int64 {
	if d.err != nil || len(d.b) < 8 {
		d.err = ErrFormat
		return 0
	}
	v := int64(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *decBuf) f64() float64 {
	if d.err != nil || len(d.b) < 8 {
		d.err = ErrFormat
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *decBuf) boolVal() bool { return d.byteVal() != 0 }

// encodeFooter serializes f.
func encodeFooter(f *Footer) []byte {
	e := &encBuf{}
	e.uvarint(uint64(len(f.Columns)))
	for _, c := range f.Columns {
		e.str(c.Name)
		e.byteVal(byte(c.Type))
	}
	e.uvarint(uint64(len(f.RowGroups)))
	for _, rg := range f.RowGroups {
		e.uvarint(uint64(rg.NumRows))
		for ci, c := range rg.Chunks {
			e.uvarint(c.Offset)
			e.uvarint(c.Size)
			e.uvarint(c.RawSize)
			e.uvarint(uint64(c.NumValues))
			e.byteVal(byte(c.Encoding))
			e.boolVal(c.Compressed)
			e.u32(c.CRC)
			e.boolVal(c.Stats.Valid)
			if c.Stats.Valid {
				switch f.Columns[ci].Type {
				case Int64:
					e.i64(c.Stats.MinI)
					e.i64(c.Stats.MaxI)
				case Float64:
					e.f64(c.Stats.MinF)
					e.f64(c.Stats.MaxF)
				case String:
					e.str(c.Stats.MinS)
					e.str(c.Stats.MaxS)
				}
				e.uvarint(uint64(c.Stats.DistinctEst))
			}
		}
	}
	return e.b
}

// decodeFooter parses the output of encodeFooter.
func decodeFooter(b []byte) (*Footer, error) {
	d := &decBuf{b: b}
	f := &Footer{}
	nCols := d.uvarint()
	if d.err == nil && nCols > 1<<20 {
		return nil, ErrFormat
	}
	for i := uint64(0); i < nCols && d.err == nil; i++ {
		f.Columns = append(f.Columns, Column{Name: d.str(), Type: Type(d.byteVal())})
	}
	nRG := d.uvarint()
	if d.err == nil && nRG > 1<<24 {
		return nil, ErrFormat
	}
	for g := uint64(0); g < nRG && d.err == nil; g++ {
		numRows := d.uvarint()
		if d.err == nil && numRows > MaxChunkRows {
			return nil, ErrFormat
		}
		rg := RowGroup{NumRows: int(numRows)}
		for ci := range f.Columns {
			var c ChunkMeta
			c.Offset = d.uvarint()
			c.Size = d.uvarint()
			c.RawSize = d.uvarint()
			// A chunk holds its row group's rows. Readers size bitmaps and
			// value slices by NumValues, so a footer that disagrees with
			// itself is refused here, not discovered by an allocation.
			if numValues := d.uvarint(); d.err == nil && numValues != numRows {
				return nil, ErrFormat
			}
			c.NumValues = rg.NumRows
			c.Encoding = colenc.Encoding(d.byteVal())
			c.Compressed = d.boolVal()
			c.CRC = d.u32()
			c.Stats.Valid = d.boolVal()
			if c.Stats.Valid && d.err == nil {
				switch f.Columns[ci].Type {
				case Int64:
					c.Stats.MinI = d.i64()
					c.Stats.MaxI = d.i64()
				case Float64:
					c.Stats.MinF = d.f64()
					c.Stats.MaxF = d.f64()
				case String:
					c.Stats.MinS = d.str()
					c.Stats.MaxS = d.str()
				}
				c.Stats.DistinctEst = uint32(d.uvarint())
			}
			rg.Chunks = append(rg.Chunks, c)
		}
		f.RowGroups = append(f.RowGroups, rg)
	}
	if d.err != nil {
		return nil, d.err
	}
	return f, nil
}
