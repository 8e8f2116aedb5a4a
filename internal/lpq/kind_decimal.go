package lpq

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/fusionstore/fusion/internal/colenc"
)

// Decimal pages hold each Float64 value v as an integer i, v times a power of
// ten rounded, framed as by a frame of reference, beside a two-bit
// correction: the ulp that takes float64(i)/scale to v's bits, or an escape
// to v's raw bits where none does.
//
//	[Decimal] byte scale (index into decimalScales), uvarint numPages,
//	          per page: uvarint rowCount, uvarint byteLen,
//	                    int64 base, byte width (| 0x80: corrected),
//	                    uvarint numEscapes, a code per row packed at width+2:
//	                    offset<<2 | correction (exact, +1 ulp, -1 ulp, or
//	                    escape, whose offset is its index in the raw list), then
//	                    the escapes' values, 8 raw bytes each; a page of exact
//	                    rows only packs bare offsets at width, and no escapes
type decimalKind struct{}

func (decimalKind) holds(t Type) bool { return t == Float64 }
func (decimalKind) snappy() bool      { return true }

// decimalScales are the powers of ten a decimal chunk may scale by. A chunk's
// header names its scale by index, so the order is part of the format.
var decimalScales = [...]float64{1, 10, 100, 1000, 10000}

// Corrections, the low corrBits bits of a row's code: how v's bits differ
// from those of float64(i)/scale, or an escape to the page's raw values.
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

// corrected, set in a page's width byte, says that its codes carry a
// correction below the offset.
const corrected = 0x80

func (decimalKind) parseHeader(c *Chunk, b []byte) ([]byte, error) {
	if len(b) < 1 || int(b[0]) >= len(decimalScales) {
		return nil, fmt.Errorf("lpq: decimal chunk without a scale decimalScales holds: %w", ErrFormat)
	}
	c.scale = decimalScales[b[0]]
	return b[1:], nil
}

// parsePage reads the page's frame and escape count: a code must fit 32 bits,
// the offset field index every escape, and every escape's value be there.
// The page's width becomes its codes', and its end where the values begin.
func (decimalKind) parsePage(c *Chunk, pg *page, dir []byte) ([]byte, error) {
	b, rest, err := c.pageBody(pg, dir)
	if err != nil {
		return nil, err
	}
	body := decBuf{b: b}
	pg.base = body.i64()
	pg.width = int(body.byteVal())
	escapes := body.uvarint()
	if pg.width&corrected != 0 {
		pg.width, pg.corr = pg.width&^corrected, corrBits
	}
	if body.err != nil || pg.width+pg.corr > colenc.MaxFrameWidth || pg.width < 1 ||
		pg.base > math.MaxInt64-(1<<pg.width-1) || escapes > uint64(pg.corr/corrBits)<<pg.width {
		return nil, colenc.ErrCorrupt
	}
	pg.escapes, pg.width = int(escapes), pg.width+pg.corr
	codes := packedLen(pg.rows, pg.width)
	if codes > len(body.b) || 8*escapes > uint64(len(body.b)-codes) {
		return nil, colenc.ErrCorrupt
	}
	pg.off = pg.end - len(body.b)
	pg.end = pg.off + codes
	return rest, nil
}

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

// decimalPage is the shape of one page: the frame of its rows' integers, its
// width enough to index every escape, corrBits of correction or none, and how
// many rows escape.
type decimalPage struct {
	base    int64
	width   int
	corr    int
	escapes int
}

// planDecimalPage frames vals at scale; ok is false when a code would take
// more than colenc.MaxFrameWidth bits.
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

// appendPage appends the page of the given codes and escapes' raw values.
func (p decimalPage) appendPage(e *encBuf, codes []uint64, raw []byte) {
	e.pageHead(len(codes), p.bodyLen(len(codes)))
	e.i64(p.base)
	if p.corr != 0 {
		e.byteVal(byte(p.width) | corrected)
	} else {
		e.byteVal(byte(p.width))
	}
	e.uvarint(uint64(p.escapes))
	e.b = colenc.PackUints(e.b, codes, p.width+p.corr)
	e.b = append(e.b, raw...)
}

func (decimalKind) encode(col ColumnData, pageRows, raw int, chosen []byte) ([]byte, bool) {
	return tryDecimalEncode(col.Floats, pageRows, keepLimit(raw, chosen))
}

// tryDecimalEncode lays vals out at the scale that makes the chunk smallest,
// and fails when no scale makes it smaller than limit bytes.
func tryDecimalEncode(vals []float64, pageRows, limit int) ([]byte, bool) {
	var best []decimalPage
	bestScale, bestLen := 0, limit
	for si, scale := range decimalScales {
		var pages []decimalPage
		size, escapes := 0, 0
		for start := 0; start < len(vals) && size < bestLen; start += pageRows {
			page := vals[start:min(start+pageRows, len(vals))]
			p, ok := planDecimalPage(page, scale)
			if !ok {
				size = bestLen
				break
			}
			size, escapes, pages = size+p.bodyLen(len(page)), escapes+p.escapes, append(pages, p)
		}
		if size >= bestLen {
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
		p.appendPage(e, codes[:len(page)], raw)
	}
	return e.b, len(e.b) < limit
}

func (decimalKind) fetch(sc *Scanner, p *page, i, j int) error {
	return sc.c.decimals(p, sc.readCodes(p, i, j), sc.floats[i:j])
}

// errEscape reports an escape past its page's list of values.
var errEscape = fmt.Errorf("lpq: decimal escape past its page's values: %w", colenc.ErrCorrupt)

// decimals turns codes of page p into dst's values: the integer divided by
// the scale, its bits moved by its correction's ulp (a table load, no
// branch), then, only if a code escaped, each escape's raw value.
func (c *Chunk) decimals(p *page, codes []uint32, dst []float64) error {
	shift, mask := uint(p.corr), uint32(1)<<p.corr-1
	var escaped uint32
	for k, code := range codes {
		corr := code & mask
		v := math.Float64bits(float64(p.base+int64(code>>shift)) / c.scale)
		dst[k] = math.Float64frombits(v + ulpDelta[corr&3])
		escaped |= corr & (corr >> 1)
	}
	if escaped == 0 {
		return nil
	}
	for k, code := range codes {
		if code&3 != corrEscape {
			continue
		}
		e := int(code >> 2)
		if e >= p.escapes {
			return errEscape
		}
		dst[k] = math.Float64frombits(binary.LittleEndian.Uint64(c.blob[p.end+8*e:]))
	}
	return nil
}

// reaching is the candidate test of a decimal page. The cut-off is translated
// once into the range of offsets whose value may reach it: on a corrected page
// it is first widened by an ulp, which is as far as a correction moves a value,
// and the range's edge is found by a binary search over the frame with the
// decoder's own division, so rounding puts no reaching row outside. The
// range's codes, whatever their correction, are marked by inRange. Each escape
// is judged by its raw value, a NaN reaching, and one past the page's values
// is marked for the read to report.
func (decimalKind) reaching(c *Chunk, p *page, from int, cut Cut, words []uint64) bool {
	w := cut.Float
	if w != w {
		return false
	}
	offs := 1 << (p.width - p.corr) // the frame holds offsets [0, offs)
	// lo, hi: the offsets [lo, hi) reach.
	var lo, hi int
	if cut.Desc {
		if p.corr != 0 {
			w = math.Nextafter(w, math.Inf(-1))
		}
		lo, hi = c.firstDecimal(p, offs, w, true), offs
	} else {
		if p.corr != 0 {
			w = math.Nextafter(w, math.Inf(1))
		}
		lo, hi = 0, c.firstDecimal(p, offs, w, false)
	}
	// A correction down from the integer 0 decodes to a NaN, which reaches.
	if z := -p.base; p.corr != 0 && z >= 0 && z < int64(offs) {
		lo, hi = min(lo, int(z)), max(hi, int(z)+1)
	}
	if lo == 0 && hi == offs {
		return false
	}
	if lo < hi {
		c.markRange(p, from, uint64(lo)<<p.corr, uint64(hi-lo)<<p.corr, false, words)
	}
	for e := 0; e < p.escapes; e++ {
		if c.escapeReaches(p, e, cut) {
			c.markEscapes(p, from, cut, words)
			break
		}
	}
	return true
}

// escapeReaches reports whether the e-th escape of page p, one of its values,
// reaches cut or is a NaN.
func (c *Chunk) escapeReaches(p *page, e int, cut Cut) bool {
	v := math.Float64frombits(binary.LittleEndian.Uint64(c.blob[p.end+8*e:]))
	return v != v || cut.Desc && v >= cut.Float || !cut.Desc && v <= cut.Float
}

// firstDecimal returns the smallest offset of page p's frame, below offs,
// whose integer over the scale lies above w, or at it with orEqual; offs if
// none does. The quotient does not fall as the offset grows, so a binary
// search finds it.
func (c *Chunk) firstDecimal(p *page, offs int, w float64, orEqual bool) int {
	lo, hi := 0, offs
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v := float64(p.base+int64(mid)) / c.scale; v > w || orEqual && v == w {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// markEscapes ORs into words a bit for each escape of page p, from row from
// on, that reaches cut (escapeReaches), and for each that indexes past the
// page's values. It reads every code, so reaching only calls it when some
// escape of the page reaches.
func (c *Chunk) markEscapes(p *page, from int, cut Cut, words []uint64) {
	pp := packedPage{c.blob[p.off:p.end], p.width}
	var buf [windowBytes]byte
	var codes [64]uint32
	for g := (from - p.first) &^ 63; g < p.rows; g += 64 {
		n := min(64, p.rows-g)
		pp.unpack(codes[:n], g, &buf)
		var acc uint64
		for k, code := range codes[:n] {
			if code&3 != corrEscape {
				continue
			}
			if e := int(code >> 2); e >= p.escapes || c.escapeReaches(p, e, cut) {
				acc |= 1 << k
			}
		}
		if skip := from - (p.first + g); skip > 0 {
			acc &^= 1<<skip - 1
		}
		orWord(words, p.first+g, acc)
	}
}

// reply writes the chunk's header, then each page's selected codes in its
// frame, each escape renumbered to its place among the selected escapes,
// which the page's offset width indexes as it did the page's.
func (decimalKind) reply(w replyWriter) ([]byte, error) {
	c := w.c
	w.selectedCodes()
	w.b = append(w.b, c.blob[:c.head]...)
	w.uvarint(uint64(len(w.pages)))
	var raw []byte
	at := 0
	for _, rp := range w.pages {
		p, codes := &c.pages[rp.src], w.codes[at:at+rp.n]
		raw = raw[:0]
		for k, code := range codes {
			if p.corr == 0 || code&3 != corrEscape { // bare offsets never escape
				continue
			}
			e := int(code >> 2)
			if e >= p.escapes {
				return nil, errEscape
			}
			codes[k] = uint64(len(raw)/8)<<2 | corrEscape
			raw = append(raw, c.blob[p.end+8*e:p.end+8*e+8]...)
		}
		decimalPage{p.base, p.width - p.corr, p.corr, len(raw) / 8}.appendPage(&w.encBuf, codes, raw)
		at += rp.n
	}
	return w.b, nil
}
