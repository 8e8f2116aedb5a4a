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

// Frame-of-reference pages hold Int64 values as offsets from the page's
// smallest (its frame), bit-packed; or, where that is smaller, as delta pages:
// the first value, then each step to the next row less the smallest step.
//
//	[FOR] uvarint numPages,
//	      per page: uvarint rowCount, uvarint byteLen,
//	                int64 base, byte width (1 to 32), offsets packed at width;
//	                or, width byte | 0x80 (deltaCoded): int64 first value,
//	                byte width (0 to 32), zigzag varint minimum step, and
//	                rowCount-1 steps less that minimum packed at width
//
// The writer and a reply both lay a page out by planFrame.
type frameKind struct{}

func (frameKind) holds(t Type) bool                              { return t == Int64 }
func (frameKind) snappy() bool                                   { return true }
func (frameKind) parseHeader(_ *Chunk, b []byte) ([]byte, error) { return b, nil }

// deltaCoded, set in a page's width byte, marks a delta page.
const deltaCoded = 0x80

// parsePage reads the page's frame: the largest offset must not carry base
// past int64, and no running sum of a delta page may leave it (deltaBounds).
func (frameKind) parsePage(c *Chunk, pg *page, dir []byte) ([]byte, error) {
	b, rest, err := c.pageBody(pg, dir)
	if err != nil {
		return nil, err
	}
	body := decBuf{b: b}
	pg.base = body.i64()
	if pg.width = int(body.byteVal()); pg.width&deltaCoded != 0 {
		pg.width, pg.delta, pg.step = pg.width&^deltaCoded, true, body.varint()
	}
	if body.err != nil || pg.width > colenc.MaxFrameWidth {
		return nil, colenc.ErrCorrupt
	}
	pg.off = pg.end - len(body.b)
	if pg.delta {
		if _, _, ok := deltaBounds(pg.base, pg.step, pg.rows, pg.width); !ok {
			return nil, colenc.ErrCorrupt
		}
		return rest, holdsBits(body.b, uint64((pg.rows-1)*pg.width))
	}
	if pg.width < 1 || pg.base > math.MaxInt64-(1<<pg.width-1) {
		return nil, colenc.ErrCorrupt
	}
	return rest, holdsBits(body.b, uint64(pg.rows*pg.width))
}

// DeltaPages returns how many of the chunk's pages hold deltas between
// consecutive rows (frame-of-reference chunks only) and how many pages it has.
func (c *Chunk) DeltaPages() (delta, pages int) {
	for _, p := range c.pages {
		if p.delta {
			delta++
		}
	}
	return delta, len(c.pages)
}

func (frameKind) encode(col ColumnData, pageRows, raw int, chosen []byte) ([]byte, bool) {
	return tryFrameEncode(col.Ints, pageRows, keepLimit(raw, chosen))
}

// tryFrameEncode lays vals out in pages of the forms planFrame picks. It
// fails when a page fits neither form or the chunk is not under limit bytes.
func tryFrameEncode(vals []int64, pageRows, limit int) ([]byte, bool) {
	e := &encBuf{b: []byte{byte(colenc.FOR)}}
	var buf []uint64
	e.uvarint(uint64((len(vals) + pageRows - 1) / pageRows))
	for start := 0; start < len(vals); start += pageRows {
		page := vals[start:min(start+pageRows, len(vals))]
		f, ok := planFrame(page)
		if !ok || len(e.b)+f.bodyLen(len(page)) >= limit {
			return nil, false
		}
		buf = f.appendPage(e, page, buf)
	}
	return e.b, len(e.b) < limit
}

// framePage is the form of one page: offsets from base, or with delta, base
// the first row's value and the rows-1 steps less step packed (none at width
// 0, a constant stride).
type framePage struct {
	base  int64
	width int
	delta bool
	step  int64
}

// planFrame picks the smaller form of a page of vals, offsets on a tie (a
// kernel reads them at random). Deltas are out when a step leaves int64, the
// steps span more than colenc.MaxFrameWidth bits, or deltaBounds cannot prove
// the running sum within int64; offsets, when the values span more than that.
// ok is false when both are.
func planFrame(vals []int64) (f framePage, ok bool) {
	lo, hi := vals[0], vals[0]
	dlo, dhi := int64(math.MaxInt64), int64(math.MinInt64)
	wraps := false
	for i := 1; i < len(vals); i++ {
		v, d := vals[i], vals[i]-vals[i-1]
		lo, hi = min(lo, v), max(hi, v)
		dlo, dhi = min(dlo, d), max(dhi, d)
		wraps = wraps || (v < vals[i-1]) != (d < 0)
	}
	f.base, f.width, ok = colenc.Frame(lo, hi)
	if len(vals) < 2 || wraps || uint64(dhi)-uint64(dlo) >= 1<<colenc.MaxFrameWidth {
		return f, ok
	}
	d := framePage{base: vals[0], width: bits.Len64(uint64(dhi) - uint64(dlo)), delta: true, step: dlo}
	if _, _, fits := deltaBounds(d.base, d.step, len(vals), d.width); fits && (!ok || d.bodyLen(len(vals)) < f.bodyLen(len(vals))) {
		return d, true
	}
	return f, ok
}

// bodyLen is the byte length of the page's body for rows rows: base, width
// byte, and the packed offsets, or the step's varint and the packed deltas.
func (f framePage) bodyLen(rows int) int {
	if f.delta {
		return 9 + varintLen(f.step) + packedLen(rows-1, f.width)
	}
	return 9 + packedLen(rows, f.width)
}

// appendPage appends the page of vals, staging what it packs in buf, which it
// returns for the next page to reuse.
func (f framePage) appendPage(e *encBuf, vals []int64, buf []uint64) []uint64 {
	buf = buf[:0]
	if !f.delta {
		for _, v := range vals {
			buf = append(buf, uint64(v)-uint64(f.base))
		}
	} else if f.width > 0 {
		for i := 1; i < len(vals); i++ {
			buf = append(buf, uint64(vals[i]-vals[i-1])-uint64(f.step))
		}
	}
	f.appendPacked(e, len(vals), buf)
	return buf
}

// appendPacked appends a page of rows rows given what it packs: the offsets,
// or the steps less step.
func (f framePage) appendPacked(e *encBuf, rows int, packed []uint64) {
	e.pageHead(rows, f.bodyLen(rows))
	e.i64(f.base)
	if !f.delta {
		e.byteVal(byte(f.width))
	} else {
		e.byteVal(byte(f.width) | deltaCoded)
		e.b = binary.AppendVarint(e.b, f.step)
	}
	if f.width > 0 {
		e.b = colenc.PackUints(e.b, packed, f.width)
	}
}

// varintLen is the byte length of v's zigzag varint (binary.AppendVarint).
func varintLen(v int64) int { return colenc.UvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

// deltaBounds bounds every value of a delta page of rows rows over base, step
// and width: the value k rows on lies between base+k·step and that plus
// k·(2^width-1), so all lie between the smaller and the larger of those lines'
// ends, at k = 0 and k = rows-1. ok is false when an end leaves int64, so
// that no running sum of a page the directory accepts can wrap. The far end
// of the lower line is computed in 128 bits; the upper one is at most
// 2^25·2^32 above it.
func deltaBounds(base, step int64, rows, width int) (lo, hi int64, ok bool) {
	n := uint64(rows - 1)
	h, l := bits.Mul64(uint64(step), n)
	if step < 0 {
		h -= n // uint64(step) is step + 2^64
	}
	l, carry := bits.Add64(l, uint64(base), 0)
	h += carry
	if base < 0 {
		h-- // base's high word is all ones
	}
	end, spread := int64(l), int64(n*(1<<width-1))
	if int64(h) != end>>63 || end > math.MaxInt64-spread {
		return 0, 0, false
	}
	return min(base, end), max(base, end+spread), true
}

func (frameKind) fetch(sc *Scanner, p *page, i, j int) error {
	if p.delta {
		sc.walkDeltas(p, i, j)
		return nil
	}
	// The page directory made sure base plus the widest offset fits.
	for k, code := range sc.readCodes(p, i, j) {
		sc.ints[i+k] = p.base + int64(code)
	}
	return nil
}

// deltaPage reads a delta page forward from a row whose value is known: each
// row's value is the previous row's plus step plus its packed delta.
type deltaPage struct {
	packedPage
	step  int64
	steps int // rows-1: the deltas packed
}

func (c *Chunk) deltas(p *page) deltaPage {
	return deltaPage{packedPage{c.blob[p.off:p.end], p.width}, p.step, p.rows - 1}
}

// unpack extracts the len(dst) deltas from the idx-th on, all zero at width 0.
func (dp deltaPage) unpack(dst []uint32, idx int, buf *[windowBytes]byte) {
	if dp.width == 0 {
		clear(dst)
		return
	}
	dp.packedPage.unpack(dst, idx, buf)
}

// advance returns what the n steps from the idx-th add to a value, modulo
// 2^64: one-bit deltas counted a word at a time, a few wider ones one by one,
// more a batch at a time into tmp.
func (dp deltaPage) advance(idx, n int, tmp *[BatchRows]uint32, buf *[windowBytes]byte) int64 {
	sum := uint64(n) * uint64(dp.step)
	switch {
	case dp.width == 0:
	case dp.width == 1:
		sum += uint64(ones(dp.data, idx, n))
	case n < 16:
		for k := idx; k < idx+n; k++ {
			sum += uint64(packedCode(dp.data, dp.width, k))
		}
	default:
		for n > 0 {
			k := min(n, BatchRows)
			dp.unpack(tmp[:k], idx, buf)
			for _, d := range tmp[:k] {
				sum += uint64(d)
			}
			idx, n = idx+k, n-k
		}
	}
	return int64(sum)
}

// ones counts the set bits among data's n bits from the bit-th, 56 a load.
func ones(data []byte, bit, n int) int {
	c := 0
	for ; n > 0; n -= 56 {
		var u uint64
		if at := bit >> 3; at+8 <= len(data) {
			u = binary.LittleEndian.Uint64(data[at:])
		} else {
			for i, b := range data[at:] {
				u |= uint64(b) << (8 * i)
			}
		}
		c += bits.OnesCount64(u >> (bit & 7) & (1<<min(n, 56) - 1))
		bit += 56
	}
	return c
}

// values writes to dst (at most BatchRows) the values of the rows from the
// idx-th on, v the idx-th's, a prefix sum of their deltas unpacked into tmp,
// and returns the next row's (the last row's, at the page's end).
func (dp deltaPage) values(dst []int64, v int64, idx int, tmp *[BatchRows]uint32, buf *[windowBytes]byte) int64 {
	steps := tmp[:min(len(dst), dp.steps-idx)]
	dp.unpack(steps, idx, buf)
	for k, d := range steps {
		dst[k] = v
		v += dp.step + int64(d)
	}
	if len(steps) < len(dst) {
		dst[len(steps)] = v // the page's last row
	}
	return v
}

// walkDeltas resolves rows[i:j] of delta page p, carrying the running value
// forward. Consecutive rows are a prefix sum of their deltas, straight into
// the batch. Others go in groups of 64 rows from a selected one: a group with
// fewer than eight selected carries the value to each by the sum of the steps
// before it, a denser one is decoded whole. The batch's codes are the
// deltas' scratch.
func (sc *Scanner) walkDeltas(p *page, i, j int) {
	sc.enter(p)
	dp := sc.c.deltas(p)
	first, last := int(sc.Row(i)), int(sc.Row(j-1))
	if last-first+1 == j-i {
		sc.value += dp.advance(sc.at-p.first, first-sc.at, &sc.codes, &sc.window)
		next := dp.values(sc.ints[i:j], sc.value, first-p.first, &sc.codes, &sc.window)
		// Past the page's last row, next is that row's value.
		sc.at, sc.value = min(last+1, p.first+p.rows-1), next
		return
	}
	var group [64]int64
	for k := i; k < j; {
		g := int(sc.rows[k]) // a group starts at a selected row
		n := min(64, last+1-g)
		m := selBits(sc.sel, g, n)
		if bits.OnesCount64(m) < 8 {
			for ; m != 0; m &= m - 1 {
				r := g + bits.TrailingZeros64(m)
				sc.value += dp.advance(sc.at-p.first, r-sc.at, &sc.codes, &sc.window)
				sc.ints[k], sc.at, k = sc.value, r, k+1
			}
			continue
		}
		sc.value += dp.advance(sc.at-p.first, g-sc.at, &sc.codes, &sc.window)
		sc.value = dp.values(group[:n], sc.value, g-p.first, &sc.codes, &sc.window)
		sc.at = min(g+n, p.first+p.rows-1)
		for ; m != 0; m &= m - 1 {
			sc.ints[k], k = group[bits.TrailingZeros64(m)], k+1
		}
	}
}

// SelectInts is the filter over a frame-of-reference chunk: bit r is set iff
// row r's value lies in [lo, hi] — or, with outside set, iff it does not. A
// page the bounds cover or miss is not read. On an offset page the bounds are
// translated once into offset space, clamped to the page's width, and each
// offset is one unsigned compare folded into its result word; a delta page
// is decoded a batch at a time (selectDeltas).
func (c *Chunk) SelectInts(lo, hi int64, outside bool) (*bitmap.Bitmap, error) {
	if c.enc != colenc.FOR {
		return nil, fmt.Errorf("lpq: SelectInts over a %v chunk", c.enc)
	}
	out := bitmap.New(c.rows)
	words := out.Words()
	var buf [windowBytes]byte
	for pi := range c.pages {
		p := &c.pages[pi]
		bottom, top := p.base, p.base+(1<<p.width-1) // the directory checked they fit
		if p.delta {
			bottom, top, _ = deltaBounds(p.base, p.step, p.rows, p.width)
		}
		if miss := lo > hi || hi < bottom || lo > top; miss || lo <= bottom && top <= hi {
			if miss == outside {
				out.SetRange(p.first, p.first+p.rows)
			}
			continue
		}
		if p.delta {
			c.selectDeltas(p, lo, hi, outside, out, &buf)
			continue
		}
		// Offsets of the bounds, exact as unsigned differences.
		from := uint64(max(lo, p.base)) - uint64(p.base)
		span := uint64(min(hi, top)) - uint64(max(lo, p.base))
		c.markRange(p, p.first, from, span+1, outside, words)
	}
	return out, nil
}

// reaching is the candidate test of an offset page: the cut-off translated
// into offset space once, a value at or beyond it (in the cut's direction) is
// an offset at or beyond the cut's. A delta page is read whole, as is an
// offset page whose every row reaches.
func (frameKind) reaching(c *Chunk, p *page, from int, cut Cut, words []uint64) bool {
	if p.delta {
		return false
	}
	lo, hi := p.base, p.base+(1<<p.width-1) // the directory checked they fit
	if cut.Desc {
		lo = max(lo, cut.Int)
	} else {
		hi = min(hi, cut.Int)
	}
	switch {
	case lo > hi: // no row reaches
	case hi-lo == 1<<p.width-1:
		return false
	default:
		c.markRange(p, from, uint64(lo)-uint64(p.base), uint64(hi)-uint64(lo)+1, false, words)
	}
	return true
}

// inRange returns the n (at most 64) codes from the idx-th, the first of a
// group, as a word: bit k set iff code idx+k lies in [from, from+bound). The
// borrow of code-from-bound is added into the word doubled, so the first code
// ends up highest and the word is reversed at the end. Two codes a load, the
// widths from 16 to 28 bits, are tested without an inner loop.
func (pp packedPage) inRange(idx, n int, from, bound uint64, buf *[windowBytes]byte) uint64 {
	data, bit := pp.window(idx, n, buf)
	w, per := pp.width, pp.perGroupLoad()
	mask, sh := uint64(1)<<w-1, uint(w)&63
	var acc uint64
	k := 0
	if per == 2 {
		for ; k < n; k += 2 {
			u := binary.LittleEndian.Uint64(data[bit>>3:]) >> (bit & 7)
			_, c0 := bits.Sub64(u&mask-from, bound, 0)
			_, c1 := bits.Sub64(u>>sh&mask-from, bound, 0)
			acc = acc<<2 | c0<<1 | c1
			bit += 2 * w
		}
	}
	for ; k < n; k += per {
		u := binary.LittleEndian.Uint64(data[bit>>3:]) >> (bit & 7)
		for j := per; j > 0; j-- {
			_, in := bits.Sub64(u&mask-from, bound, 0)
			acc, _ = bits.Add64(acc, acc, in)
			u >>= sh
		}
		bit += per * w
	}
	return bits.Reverse64(acc) >> (64 - k) & (1<<n - 1)
}

// selectDeltas is SelectInts over delta page p, lo <= hi: a batch the bounds
// from its first value (deltaBounds) cover or miss is stepped over by the sum
// of its deltas, any other decoded and each value tested.
func (c *Chunk) selectDeltas(p *page, lo, hi int64, outside bool, out *bitmap.Bitmap, buf *[windowBytes]byte) {
	dp := c.deltas(p)
	words, span := out.Words(), uint64(hi)-uint64(lo)
	var vals [BatchRows]int64
	var tmp [BatchRows]uint32
	v := p.base
	for g := 0; g < p.rows; g += BatchRows {
		batch := vals[:min(BatchRows, p.rows-g)]
		// Within the page's bounds, which the directory checked.
		bottom, top, _ := deltaBounds(v, p.step, len(batch), p.width)
		if miss, cover := hi < bottom || lo > top, lo <= bottom && top <= hi; miss || cover {
			if miss == outside {
				out.SetRange(p.first+g, p.first+g+len(batch))
			}
			v += dp.advance(g, min(len(batch), dp.steps-g), &tmp, buf)
			continue
		}
		v = dp.values(batch, v, g, &tmp, buf)
		for k := 0; k < len(batch); k += 64 {
			var acc uint64
			group := batch[k:min(k+64, len(batch))]
			for i, x := range group {
				_, above := bits.Sub64(span, uint64(x)-uint64(lo), 0)
				acc |= (above ^ 1) << i
			}
			if outside {
				acc ^= 1<<len(group) - 1
			}
			orWord(words, p.first+g+k, acc)
		}
	}
}

// reply re-packs an offset page's selected offsets in its own frame, and
// frames a delta page's selected values, gathered by deltaRows, anew.
func (frameKind) reply(w replyWriter) ([]byte, error) {
	vals, err := w.deltaRows()
	if err != nil {
		return nil, err
	}
	w.codes = make([]uint64, 0, w.count)
	w.byteVal(byte(colenc.FOR))
	start, pages := len(w.b), 0
	for i := range w.c.pages {
		p := &w.c.pages[i]
		if p.delta {
			n := w.selCount(p.first, p.first+p.rows)
			if n > 0 {
				pages += w.framePage(vals[:n])
			}
			vals = vals[n:]
			continue
		}
		w.codes = w.codes[:0]
		w.packedCodes(p)
		if len(w.codes) > 0 {
			framePage{base: p.base, width: p.width}.appendPacked(&w.encBuf, len(w.codes), w.codes)
			pages++
		}
	}
	return slices.Insert(w.b, start, binary.AppendUvarint(nil, uint64(pages))...), nil
}

// deltaRows gathers the values of the selected rows of the chunk's delta
// pages, in row order.
func (w *replyWriter) deltaRows() ([]int64, error) {
	sel := w.bm
	if delta, pages := w.c.DeltaPages(); delta == 0 {
		return nil, nil
	} else if delta < pages {
		only := bitmap.New(w.c.rows)
		for _, p := range w.c.pages {
			if p.delta {
				only.SetRange(p.first, p.first+p.rows)
			}
		}
		if sel != nil {
			_ = only.And(sel) // AppendSelected checked sel's length
		}
		sel = only
	}
	col, err := w.c.AppendGather(IntColumn(make([]int64, 0, w.count)), sel)
	return col.Ints, err
}

// framePage writes vals as a page in the form planFrame picks or, where
// neither form holds them, as the pages of each half (one value always fits
// offsets), and returns how many pages it wrote.
func (w *replyWriter) framePage(vals []int64) int {
	if f, ok := planFrame(vals); ok {
		w.codes = f.appendPage(&w.encBuf, vals, w.codes)
		return 1
	}
	h := len(vals) / 2
	return w.framePage(vals[:h]) + w.framePage(vals[h:])
}
