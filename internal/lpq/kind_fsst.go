package lpq

import (
	"encoding/binary"
	"fmt"

	"github.com/fusionstore/fusion/internal/bitmap"
	"github.com/fusionstore/fusion/internal/colenc"
	"github.com/fusionstore/fusion/internal/fsst"
)

// FSST pages hold each String value as its code string under the chunk's
// symbol table (package fsst), length-prefixed as a plain string is.
//
//	[FSST] uvarint numSymbols (at most 255),
//	       per symbol: byte length (1 to 8), its bytes,
//	       uvarint numPages,
//	       per page: uvarint rowCount, uvarint byteLen,
//	                 per value: uvarint codesLen, its FSST code string
//
// The writer stores a String chunk with no dictionary as FSST, under a table
// built from a sample of it, and never Snappy-compresses it: a kernel
// decodes only the rows it selects. A reply copies the code strings.
type fsstKind struct{}

func (fsstKind) holds(t Type) bool { return t == String }
func (fsstKind) snappy() bool      { return false }

// errFSSTCode reports an FSST code past the symbol table, or an escape as the
// last byte of a code string.
var errFSSTCode = fmt.Errorf("lpq: FSST code string does not decode: %w", colenc.ErrCorrupt)

func (fsstKind) parseHeader(c *Chunk, b []byte) ([]byte, error) {
	table, n, err := fsst.ParseTable(b)
	if err != nil {
		return nil, fmt.Errorf("lpq: FSST symbol table: %w", colenc.ErrCorrupt)
	}
	c.table = table
	return b[n:], nil
}

// parsePage checks an FSST page as a plain string page: a length byte a row.
func (fsstKind) parsePage(c *Chunk, pg *page, dir []byte) ([]byte, error) {
	return plainKind{}.parsePage(c, pg, dir)
}

func (fsstKind) encode(col ColumnData, pageRows, _ int, chosen []byte) ([]byte, bool) {
	if chosen != nil {
		return nil, false
	}
	vals := col.Strings
	table := fsst.Build(vals)
	e := &encBuf{b: table.AppendTable([]byte{byte(colenc.FSST)})}
	e.uvarint(uint64((len(vals) + pageRows - 1) / pageRows))
	var codes []byte
	for start := 0; start < len(vals); start += pageRows {
		at, page := len(e.b), vals[start:min(start+pageRows, len(vals))]
		for _, v := range page {
			codes = table.Encode(codes[:0], v)
			e.b = append(binary.AppendUvarint(e.b, uint64(len(codes))), codes...)
		}
		e.endPage(at, len(page))
	}
	return e.b, true
}

// fetch locates the rows' code strings and, unless the caller decodes them
// (codesOnly), decodes them into the batch's values.
func (fsstKind) fetch(sc *Scanner, p *page, i, j int) error {
	if err := sc.walkStrings(p, i, j); err != nil || sc.codesOnly {
		return err
	}
	var err error
	sc.decoded, err = sc.c.decodeSpans(sc.decoded, sc.c.blob, sc.from[i:j], sc.to[i:j])
	sc.strs = sc.decoded
	return err
}

func (fsstKind) reply(w replyWriter) ([]byte, error) { return w.rowPages() }

// appendStrings decodes the selected rows straight into the gathered bytes,
// a batch per call.
func (fsstKind) appendStrings(c *Chunk, dst []string, sel *bitmap.Bitmap) ([]string, error) {
	var sc Scanner
	if err := c.Scan(&sc, sel); err != nil {
		return dst, err
	}
	g := newStringBuf(c, dst, sel)
	sc.codesOnly = true
	for sc.Next() {
		from, to := sc.from[:sc.n], sc.to[:sc.n]
		need := 0
		for k := range from {
			need += fsst.MaxDecodedLen(int(to[k] - from[k]))
		}
		g.room(need)
		var err error
		if g.buf, err = c.decodeSpans(g.buf, c.blob, from, to); err != nil {
			return g.done(), err
		}
		for k := range from {
			g.lens = append(g.lens, int(to[k]-from[k]))
		}
	}
	return g.done(), sc.Err()
}

// decodeSpans is the symbol table's DecodeSpans.
func (c *Chunk) decodeSpans(dst, src []byte, from, to []uint32) ([]byte, error) {
	dst, err := c.table.DecodeSpans(dst, src, from, to)
	if err != nil {
		return dst, errFSSTCode
	}
	return dst, nil
}
