package lpq

import (
	"encoding/binary"
	"math"

	"github.com/fusionstore/fusion/internal/bitmap"
	"github.com/fusionstore/fusion/internal/colenc"
)

// Plain pages hold the values as they are: 8 little-endian bytes a number, a
// uvarint length and the bytes a string.
//
//	[Plain] uvarint numPages,
//	        per page: uvarint rowCount, uvarint byteLen, the values
//
// The writer stores a chunk plain when no other kind takes it, or under
// WriterOptions.DisableDict.
type plainKind struct{}

func (plainKind) holds(Type) bool                                { return true }
func (plainKind) snappy() bool                                   { return true }
func (plainKind) parseHeader(_ *Chunk, b []byte) ([]byte, error) { return b, nil }

func (plainKind) parsePage(c *Chunk, pg *page, dir []byte) ([]byte, error) {
	body, rest, err := c.pageBody(pg, dir)
	if err != nil {
		return nil, err
	}
	per := uint64(64)
	if c.typ == String {
		per = 8
	}
	return rest, holdsBits(body, uint64(pg.rows)*per)
}

func (plainKind) encode(col ColumnData, pageRows, _ int, chosen []byte) ([]byte, bool) {
	if chosen != nil {
		return nil, false
	}
	e := &encBuf{b: []byte{byte(colenc.Plain)}}
	n := col.Len()
	e.uvarint(uint64((n + pageRows - 1) / pageRows))
	for start := 0; start < n; start += pageRows {
		end, at := min(start+pageRows, n), len(e.b)
		switch col.Type {
		case Int64:
			e.b = colenc.PutInt64s(e.b, col.Ints[start:end])
		case Float64:
			e.b = colenc.PutFloat64s(e.b, col.Floats[start:end])
		default:
			e.b = colenc.PutStrings(e.b, col.Strings[start:end])
		}
		e.endPage(at, end-start)
	}
	return e.b, true
}

// fetch reads a number by its offset, consecutive rows in one pass.
func (plainKind) fetch(sc *Scanner, p *page, i, j int) error {
	c := sc.c
	if c.typ == String {
		return sc.walkStrings(p, i, j)
	}
	at := func(r int32) []byte { return c.blob[p.off+8*(int(r)-p.first):] }
	switch src := at(sc.Row(i)); {
	case c.typ == Int64 && sc.dense(i, j):
		for k := range sc.ints[i:j] {
			sc.ints[i+k] = int64(binary.LittleEndian.Uint64(src[8*k:]))
		}
	case c.typ == Int64:
		for k, r := range sc.rows[i:j] {
			sc.ints[i+k] = int64(binary.LittleEndian.Uint64(at(r)))
		}
	case sc.dense(i, j):
		for k := range sc.floats[i:j] {
			sc.floats[i+k] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*k:]))
		}
	default:
		for k, r := range sc.rows[i:j] {
			sc.floats[i+k] = math.Float64frombits(binary.LittleEndian.Uint64(at(r)))
		}
	}
	return nil
}

func (plainKind) reply(w replyWriter) ([]byte, error) { return w.rowPages() }

// appendStrings copies each value's bytes.
func (plainKind) appendStrings(c *Chunk, dst []string, sel *bitmap.Bitmap) ([]string, error) {
	var sc Scanner
	if err := c.Scan(&sc, sel); err != nil {
		return dst, err
	}
	g := newStringBuf(c, dst, sel)
	for sc.Next() {
		for i := 0; i < sc.Len(); i++ {
			b := sc.Bytes(i)
			g.room(len(b))
			g.buf = append(g.buf, b...)
			g.lens = append(g.lens, len(b))
		}
	}
	return g.done(), sc.Err()
}
