package lpq

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"github.com/fusionstore/fusion/internal/bitmap"
	"github.com/fusionstore/fusion/internal/colenc"
)

// Dictionary pages hold a code per row into the chunk's dictionary page, as
// in Fig. 3 of the paper, run-length encoded or bit-packed (dictPage).
//
//	[Dict] uvarint dictLen, the entries plain-encoded,   // dictionary page
//	       uvarint numPages,
//	       per page: uvarint rowCount, code form byte (Plain: bit-packed,
//	                 RLEEnc: uvarint (run, code) pairs), uvarint byteLen,
//	                 the codes
//
// A reply carries only the entries its rows use, in the chunk's order.
type dictKind struct{}

// dictMaxFraction caps a dictionary's entries relative to the chunk's rows.
const dictMaxFraction = 0.5

func (dictKind) holds(Type) bool { return true }
func (dictKind) snappy() bool    { return true }

// Dict returns the dictionary page's values and true for a
// dictionary-encoded chunk. Callers must not modify them.
func (c *Chunk) Dict() (ColumnData, bool) { return c.dict, c.enc == colenc.Dict }

// errCode reports a dictionary code with no dictionary entry.
var errCode = fmt.Errorf("lpq: dictionary code out of range: %w", colenc.ErrCorrupt)

func (dictKind) parseHeader(c *Chunk, b []byte) ([]byte, error) {
	d := decBuf{b: b}
	n := d.uvarint()
	if d.err != nil || n > math.MaxInt32 {
		return nil, ErrFormat
	}
	dictLen := int(n)
	c.dict.Type = c.typ
	c.width = codeWidth(dictLen)
	var err error
	size := 8 * dictLen
	switch c.typ {
	case Int64:
		c.dict.Ints, err = colenc.GetInt64s(d.b, dictLen)
	case Float64:
		c.dict.Floats, err = colenc.GetFloat64s(d.b, dictLen)
	default:
		if size, err = colenc.StringsSize(d.b, dictLen); err == nil {
			c.dict.Strings, err = colenc.GetStrings(d.b[:size], dictLen)
		}
	}
	if err != nil {
		return nil, err
	}
	return d.b[size:], nil
}

// parsePage reads the code form. A run-length page has no minimum length for
// its rows, so its runs are walked here, and the kernels rely on it.
func (dictKind) parsePage(c *Chunk, pg *page, dir []byte) ([]byte, error) {
	d := decBuf{b: dir}
	switch colenc.Encoding(d.byteVal()) {
	case colenc.Plain:
	case colenc.RLEEnc:
		pg.rle = true
	default:
		return nil, colenc.ErrCorrupt
	}
	body, rest, err := c.pageBody(pg, d.b)
	if err != nil {
		return nil, err
	}
	if pg.width = c.width; pg.rle {
		return rest, checkRuns(body, uint64(pg.rows), uint64(c.dict.Len()))
	}
	return rest, holdsBits(body, uint64(pg.rows*pg.width))
}

// checkRuns verifies that a run-length page's runs cover exactly rows rows
// with codes the dictionary holds.
func checkRuns(data []byte, rows, dictLen uint64) error {
	for rows > 0 {
		run, code, n := colenc.RLERun(data)
		if n == 0 || run > rows {
			return colenc.ErrCorrupt
		}
		if code >= dictLen {
			return errCode
		}
		data, rows = data[n:], rows-run
	}
	return nil
}

// encode reports failure when the dictionary has more than dictMaxFraction
// entries a row or the chunk would be larger than the plain values.
func (dictKind) encode(col ColumnData, pageRows, raw int, _ []byte) ([]byte, bool) {
	dict := ColumnData{Type: col.Type}
	var codes []uint64
	switch col.Type {
	case Int64:
		dict.Ints, codes = colenc.BuildDict(col.Ints)
	case Float64:
		dict.Floats, codes = colenc.BuildFloatDict(col.Floats)
	default:
		dict.Strings, codes = colenc.BuildDict(col.Strings)
	}
	if float64(dict.Len()) > dictMaxFraction*float64(len(codes)) {
		return nil, false
	}
	e := &encBuf{b: []byte{byte(colenc.Dict)}}
	e.uvarint(uint64(dict.Len()))
	switch dict.Type {
	case Int64:
		e.b = colenc.PutInt64s(e.b, dict.Ints)
	case Float64:
		e.b = colenc.PutFloat64s(e.b, dict.Floats)
	default:
		e.b = colenc.PutStrings(e.b, dict.Strings)
	}
	width := codeWidth(dict.Len())
	e.uvarint(uint64((len(codes) + pageRows - 1) / pageRows))
	for start := 0; start < len(codes); start += pageRows {
		e.dictPage(codes[start:min(start+pageRows, len(codes))], width)
	}
	return e.b, len(e.b) <= raw
}

// codeWidth is the width codes into a dictionary of n entries are packed at.
func codeWidth(n int) int { return colenc.BitWidth(uint64(max(n, 1) - 1)) }

// dictPage appends a page of codes: run-length encoded where that is
// smaller, else bit-packed at width. Each run takes two bytes at least, so
// counting runs stops as soon as packing must win.
func (e *encBuf) dictPage(codes []uint64, width int) {
	packed := packedLen(len(codes), width)
	rle, runs := false, 1
	for i := 1; i < len(codes) && 2*runs < packed; i++ {
		if codes[i] != codes[i-1] {
			runs++
		}
	}
	var size int
	if 2*runs < packed {
		size = colenc.RLESize(codes)
		rle = size < packed
	}
	e.uvarint(uint64(len(codes)))
	if rle {
		e.byteVal(byte(colenc.RLEEnc))
		e.uvarint(uint64(size))
		e.b = colenc.RLEEncode(e.b, codes)
		return
	}
	e.byteVal(byte(colenc.Plain))
	e.uvarint(uint64(packed))
	e.b = colenc.PackUints(e.b, codes, width)
}

// fetch resolves the codes, checking a bit-packed page's as they are used (a
// run-length page's were checked at open).
func (dictKind) fetch(sc *Scanner, p *page, i, j int) error {
	codes, dict := sc.readCodes(p, i, j), sc.c.dict
	switch sc.c.typ {
	case Int64:
		return resolve(sc.ints[i:j], codes, dict.Ints)
	case Float64:
		return resolve(sc.floats[i:j], codes, dict.Floats)
	}
	for _, code := range codes {
		if int(code) >= len(dict.Strings) {
			return errCode
		}
	}
	return nil
}

// walkRuns resolves rows[i:j] of a run-length page, checked at open, parsing
// runs forward to the one holding each row; consecutive rows fill a run at a
// time.
func (sc *Scanner) walkRuns(p *page, i, j int, dense bool) {
	sc.enter(p)
	for k := i; k < j; {
		// sc.at is the first row past the run in hand.
		r := int(sc.Row(k))
		for r >= sc.at {
			run, code, n := colenc.RLERun(sc.c.blob[sc.pos:p.end])
			sc.pos, sc.at, sc.runCode = sc.pos+n, sc.at+int(run), uint32(code)
		}
		n := 1
		if dense {
			n = min(j-k, sc.at-r)
		}
		for end := k + n; k < end; k++ {
			sc.codes[k] = sc.runCode
		}
	}
}

// resolve writes to dst each code's dictionary entry.
func resolve[T any](dst []T, codes []uint32, dict []T) error {
	for k, code := range codes {
		if int(code) >= len(dict) {
			return errCode
		}
		dst[k] = dict[code]
	}
	return nil
}

// reply writes the entries the selected codes use, then the codes remapped.
func (dictKind) reply(w replyWriter) ([]byte, error) {
	c := w.c
	w.selectedCodes()
	remap := make([]uint32, c.dict.Len()) // 1 for an entry in use, then its reply code
	for _, code := range w.codes {
		if code >= uint64(len(remap)) {
			return nil, errCode
		}
		remap[code] = 1
	}
	used := uint32(0)
	for _, u := range remap {
		used += u
	}
	w.byteVal(byte(colenc.Dict))
	w.uvarint(uint64(used))
	next := uint32(0)
	for code, u := range remap {
		if u == 0 {
			continue
		}
		remap[code], next = next, next+1
		switch c.typ {
		case Int64:
			w.i64(c.dict.Ints[code])
		case Float64:
			w.f64(c.dict.Floats[code])
		default:
			w.str(c.dict.Strings[code])
		}
	}
	width := codeWidth(int(used))
	for i, code := range w.codes {
		w.codes[i] = uint64(remap[code])
	}
	w.uvarint(uint64(len(w.pages)))
	at := 0
	for _, rp := range w.pages {
		w.dictPage(w.codes[at:at+rp.n], width)
		at += rp.n
	}
	return w.b, nil
}

// appendStrings appends each code's entry: the dictionary's strings, shared.
func (dictKind) appendStrings(c *Chunk, dst []string, sel *bitmap.Bitmap) ([]string, error) {
	var sc Scanner
	if err := c.Scan(&sc, sel); err != nil {
		return dst, err
	}
	dict := c.dict.Strings
	for sc.Next() {
		codes := sc.Codes()
		n := len(dst)
		dst = slices.Grow(dst, len(codes))[:n+len(codes)]
		for k, code := range codes {
			dst[n+k] = dict[code]
		}
	}
	return dst, sc.Err()
}

// SelectCodes turns a verdict per dictionary entry into a verdict per row:
// bit r is set iff match has the bit of row r's code. A bit-packed page is
// read 64 rows — one result word — at a time: 1-, 2-, 4- and 8-bit codes a
// byte at a time through a table of their verdicts, others a code at a time
// through a table by code. A run-length page is read a run at a time.
func (c *Chunk) SelectCodes(match *bitmap.Bitmap) (*bitmap.Bitmap, error) {
	dictLen := c.dict.Len()
	if c.enc != colenc.Dict || match.Len() != dictLen {
		return nil, fmt.Errorf("lpq: SelectCodes: verdict over %d entries, dictionary has %d", match.Len(), dictLen)
	}
	out := bitmap.New(c.rows)
	words, verdict := out.Words(), match.Words()
	if c.width > maxLUTWidth {
		return out, c.selectWideCodes(verdict, out)
	}
	// The verdicts as a byte per possible code, 2 for a code the dictionary
	// lacks, so the scan below neither shifts nor branches per row.
	lut := make([]uint8, 1<<c.width)
	for i := range lut {
		lut[i] = 2
		if i < dictLen {
			lut[i] = uint8(verdict[i>>6] >> (i & 63) & 1)
		}
	}
	var byteTab *[256]uint16 // built at the first whole group of 1-, 2-, 4- or 8-bit codes
	var seen uint16
	var buf [windowBytes]byte
	for _, p := range c.pages {
		data := c.blob[p.off:p.end]
		if p.rle {
			for r, end := p.first, p.first+p.rows; r < end; {
				run, code, n := colenc.RLERun(data)
				if verdict[code>>6]>>(code&63)&1 != 0 {
					out.SetRange(r, r+int(run))
				}
				data, r = data[n:], r+int(run)
			}
			continue
		}
		pp := packedPage{data, p.width}
		for g := 0; g < p.rows; g += 64 {
			var acc uint64
			if n := min(64, p.rows-g); n == 64 && 8%p.width == 0 {
				// A whole group is 8·width bytes, every bit of them its codes'.
				if byteTab == nil {
					byteTab = byteVerdicts(lut, p.width)
				}
				step := 8 / p.width
				for i, b := range data[g*p.width/8 : (g+64)*p.width/8] {
					m := byteTab[b]
					seen |= m
					acc |= uint64(m&0xff) << (i * step)
				}
			} else {
				var miss bool
				if acc, miss = pp.lookup(g, n, lut, &buf); miss {
					return nil, errCode
				}
			}
			orWord(words, p.first+g, acc)
		}
	}
	if seen&byteMiss != 0 {
		return nil, errCode
	}
	return out, nil
}

// lookup returns the verdicts lut holds for the n (at most 64) codes from the
// idx-th, the first of a group, as a word: bit k for code idx+k. It also
// reports whether one of them is beyond the dictionary (lut value 2).
func (pp packedPage) lookup(idx, n int, lut []uint8, buf *[windowBytes]byte) (uint64, bool) {
	data, bit := pp.window(idx, n, buf)
	w, per := pp.width, pp.perGroupLoad()
	mask, sh := uint64(1)<<w-1, uint(w)&63
	var acc uint64
	var seen uint8
	for k := 0; k < n; k += per {
		u := binary.LittleEndian.Uint64(data[bit>>3:]) >> (bit & 7)
		for j := min(per, n-k); j > 0; j-- {
			m := lut[u&mask]
			seen |= m
			acc += acc + uint64(m&1)
			u >>= sh
		}
		bit += per * w
	}
	return bits.Reverse64(acc) >> (64 - n), seen&2 != 0
}

// byteVerdicts is SelectCodes' table for 1-, 2-, 4- and 8-bit codes: per byte
// value, its codes' verdicts in its low bits, and byteMiss if one of them is
// beyond the dictionary.
func byteVerdicts(lut []uint8, width int) *[256]uint16 {
	tab := new([256]uint16)
	for b := range tab {
		for i := 0; i < 8/width; i++ {
			m := uint16(lut[b>>(i*width)&(1<<width-1)])
			tab[b] |= m&1<<i | m>>1*byteMiss
		}
	}
	return tab
}

// byteMiss marks an entry of byteVerdicts with a code beyond the dictionary.
const byteMiss = 1 << 8

// maxLUTWidth is the widest code SelectCodes builds a lookup table for: 64 KB.
const maxLUTWidth = 16

// selectWideCodes is SelectCodes for a dictionary of more than 2^maxLUTWidth
// entries, too many for a table: the codes come through a Scanner.
func (c *Chunk) selectWideCodes(verdict []uint64, out *bitmap.Bitmap) error {
	var sc Scanner
	if err := c.Scan(&sc, nil); err != nil {
		return err
	}
	for sc.Next() {
		for i, code := range sc.Codes() {
			if verdict[code>>6]>>(code&63)&1 != 0 {
				out.Set(int(sc.Row(i)))
			}
		}
	}
	return sc.Err()
}
