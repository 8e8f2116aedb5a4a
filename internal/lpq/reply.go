package lpq

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"github.com/fusionstore/fusion/internal/bitmap"
	"github.com/fusionstore/fusion/internal/colenc"
)

// A projection reply is the rows a pushed projection selects as a chunk of
// their own, in the source chunk's encoding and never Snappy-compressed: the
// blob layout of encodeChunk over just those rows. A node writes it
// (AppendSelected) from the opened chunk without decoding a value; the
// coordinator opens it (OpenReply) with the checks OpenChunk makes and gathers
// it like any chunk. Per kind:
//
//	Plain:   the selected values.
//	FSST:    the chunk's symbol table verbatim, then the selected rows' code
//	         strings, copied, never decoded.
//	FOR:     per offset page, its base and width and the selected offsets
//	         re-packed at that width; per delta page, its selected values in
//	         the form the writer would pick for them (planFrame): offsets
//	         from their own frame, or the steps between them. Where neither
//	         form holds them, which only a sparse selection of a delta page
//	         with wide steps can meet, they are split over as many pages as
//	         it takes.
//	Decimal: the chunk's scale; per page, its base and width, the selected
//	         codes re-packed at that width — an escape renumbered to the reply
//	         page's list — and that list: the selected escapes' raw values.
//	Dict:    only the dictionary entries the selection uses, in the chunk's
//	         order; per page, the codes remapped to them, bit-packed at the
//	         width their count needs, or run-length encoded where that is
//	         smaller.
//
// A reply page holds the selected rows of one source page (or of part of one,
// FOR only); a source page with none is left out.

// OpenReply opens a projection reply of rows rows of type t, as AppendSelected
// wrote it. It checks everything OpenChunk checks but the checksum, which a
// reply has no footer entry for: the pages must hold exactly rows rows, and a
// value that does not decode fails the kernel that reads it. The chunk aliases
// body and holds no pooled buffer.
func OpenReply(t Type, rows int, body []byte) (*Chunk, error) {
	return openBlob(t, rows, body, false)
}

// AppendSelected appends the projection reply of the rows sel selects (nil
// selects every row) to dst: OpenReply opens it as a chunk of sel's count of
// rows, which gathers to what AppendGather gathers from c under sel. Each page
// is read under its selection words, 64 rows at a time; codes, offsets, plain
// values and code strings are copied, never decoded. A delta page's selected
// values are gathered and framed anew. On error dst's appended tail is
// unspecified.
func (c *Chunk) AppendSelected(dst []byte, sel *bitmap.Bitmap) ([]byte, error) {
	w := replyWriter{c: c}
	count := c.rows
	if sel != nil {
		if sel.Len() != c.rows {
			return dst, fmt.Errorf("lpq: selection has %d rows, chunk has %d", sel.Len(), c.rows)
		}
		if !sel.Full() {
			w.sel, count = sel.Words(), sel.Count()
		}
	}
	// Room for about the selected share of the chunk's bytes.
	w.b = slices.Grow(dst, 64+len(c.blob)*count/max(c.rows, 1))
	var err error
	switch c.enc {
	case colenc.Plain, colenc.FSST:
		err = w.rowPages()
	case colenc.FOR:
		w.codes = make([]uint64, 0, count)
		err = w.framePages(sel, count)
	default:
		w.codes = make([]uint64, 0, count)
		err = w.codePages()
	}
	if err != nil {
		return dst, err
	}
	return w.b, nil
}

// replyWriter writes a projection reply. Plain values and code strings go
// straight to the reply, each page's header put in front of them once the
// page ends. Codes are kept until every page is read, because what comes
// before them — the dictionary of the entries used, the page count — depends
// on all of them. A frame-of-reference page is written as it is read, the
// page count put in front of the pages at the end.
type replyWriter struct {
	encBuf
	c   *Chunk
	sel []uint64 // the selection's words, nil for every row

	codes []uint64    // every selected row's code; for a frame chunk, one page's
	pages []replyPage // the source pages they fall on, in order

	raw []byte // decimal chunks: a reply page's escapes' values
}

// replyPage is a source page and how many of its rows are selected.
type replyPage struct{ src, n int }

// pageWord returns the selection bits of rows [g, g+64) of page p, none past
// its end.
func (w *replyWriter) pageWord(p *page, g int) uint64 {
	return selBits(w.sel, p.first+g, min(64, p.rows-g))
}

// selCount counts the selected rows of [lo, hi).
func (w *replyWriter) selCount(lo, hi int) int {
	n := 0
	for ; lo < hi; lo += 64 {
		n += bits.OnesCount64(selBits(w.sel, lo, min(64, hi-lo)))
	}
	return n
}

// rowPages writes a plain or FSST reply: the chunk's header verbatim, the
// count of pages holding a selected row, then each of those pages — its
// selected rows' bytes as stored, a run of them one copy, and in front of them
// the page's row and byte counts.
func (w *replyWriter) rowPages() error {
	c := w.c
	w.b = append(w.b, c.blob[:c.head]...)
	pages := 0
	for _, p := range c.pages {
		if w.selCount(p.first, p.first+p.rows) > 0 {
			pages++
		}
	}
	w.uvarint(uint64(pages))
	for i := range c.pages {
		p := &c.pages[i]
		n := w.selCount(p.first, p.first+p.rows)
		if n == 0 {
			continue
		}
		start := len(w.b)
		if err := w.copyRows(p); err != nil {
			return err
		}
		var hdr [2 * binary.MaxVarintLen64]byte
		h := binary.AppendUvarint(hdr[:0], uint64(n))
		h = binary.AppendUvarint(h, uint64(len(w.b)-start))
		w.b = slices.Insert(w.b, start, h...)
	}
	return nil
}

// copyRows appends the stored bytes of page p's selected rows: 8 a plain
// numeric row, a length prefix and that many bytes a string. The strings are
// walked by their prefixes, each checked against the page's end.
func (w *replyWriter) copyRows(p *page) error {
	blob := w.c.blob[:p.end]
	if w.c.typ != String {
		for g := 0; g < p.rows; g += 64 {
			for m := w.pageWord(p, g); m != 0; m &= m - 1 {
				at := p.off + 8*(g+bits.TrailingZeros64(m))
				w.b = append(w.b, blob[at:at+8]...)
			}
		}
		return nil
	}
	// A group's 64 rows are walked first, their offsets kept, so the walk
	// does not branch on the selection; then each run of selected rows is
	// one copy.
	var offs [65]int
	pos := p.off
	for g := 0; g < p.rows; g += 64 {
		n := min(64, p.rows-g)
		offs[0] = pos
		for r := 1; r <= n; r++ {
			if pos >= len(blob) {
				return colenc.ErrCorrupt
			}
			l, k := uint64(blob[pos]), 1
			if l >= 0x80 {
				if l, k = binary.Uvarint(blob[pos:]); k <= 0 {
					return colenc.ErrCorrupt
				}
			}
			if l > uint64(len(blob)-pos-k) {
				return colenc.ErrCorrupt
			}
			pos += k + int(l)
			offs[r] = pos
		}
		for m := w.pageWord(p, g); m != 0; {
			from, to := bits.TrailingZeros64(m), 64
			if rest := ^m >> from; rest != 0 { // m has no bit past the page's end
				to = from + bits.TrailingZeros64(rest)
			}
			w.b = append(w.b, blob[offs[from]:offs[to]]...)
			m &^= 1<<to - 1
		}
	}
	return nil
}

// framePages writes a frame-of-reference reply of the rows sel selects: the
// encoding byte, the count of reply pages, then each source page's selected
// rows. An offset page's selected offsets (packedCodes) are re-packed in its
// own frame, as the writer would pack them. A delta page's selected values are
// read as every kernel reads them, by a Scanner (deltaRows), and laid out by
// framePage in the form the writer would pick for them.
func (w *replyWriter) framePages(sel *bitmap.Bitmap, count int) error {
	vals, err := w.deltaRows(sel, count)
	if err != nil {
		return err
	}
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
		_ = w.packedCodes(p) // offsets are never out of range
		if len(w.codes) > 0 {
			framePage{base: p.base, width: p.width}.appendPacked(&w.encBuf, len(w.codes), w.codes)
			pages++
		}
	}
	w.b = slices.Insert(w.b, start, binary.AppendUvarint(nil, uint64(pages))...)
	return nil
}

// deltaRows gathers the values of the selected rows of the chunk's delta
// pages, of which there are at most count, in row order: under sel when every
// page holds deltas, else under sel less the offset pages' rows.
func (w *replyWriter) deltaRows(sel *bitmap.Bitmap, count int) ([]int64, error) {
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
	col, err := w.c.AppendGather(IntColumn(make([]int64, 0, count)), sel)
	return col.Ints, err
}

// framePage writes vals as one frame-of-reference page in the form planFrame
// picks or, where neither form holds them, as the pages of each half, and
// returns how many pages it wrote. One value always fits offsets.
func (w *replyWriter) framePage(vals []int64) int {
	if f, ok := planFrame(vals); ok {
		w.codes = f.appendPage(&w.encBuf, vals, w.codes)
		return 1
	}
	h := len(vals) / 2
	return w.framePage(vals[:h]) + w.framePage(vals[h:])
}

// codePages writes a dictionary or decimal reply. Each page's selected codes
// are read — a run-length page a run at a time, a bit-packed one 64 codes at
// a time under their selection word — then the header is written — for a
// dictionary chunk the entries the codes use, in the chunk's order, the codes
// remapped to them — then the pages.
func (w *replyWriter) codePages() error {
	c := w.c
	for pi := range c.pages {
		p := &c.pages[pi]
		before := len(w.codes)
		if p.rle {
			w.runCodes(p)
		} else if err := w.packedCodes(p); err != nil {
			return err
		}
		if n := len(w.codes) - before; n > 0 {
			w.pages = append(w.pages, replyPage{pi, n})
		}
	}
	width := 0
	if c.enc == colenc.Dict {
		remap := make([]uint32, c.dict.Len()) // 1 for an entry in use, then its reply code
		for _, code := range w.codes {
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
		for i, code := range w.codes {
			w.codes[i] = uint64(remap[code])
		}
		width = colenc.BitWidth(uint64(max(used, 1) - 1))
	} else {
		w.b = append(w.b, c.blob[:c.head]...)
	}
	w.uvarint(uint64(len(w.pages)))
	at := 0
	for _, rp := range w.pages {
		p, codes := &c.pages[rp.src], w.codes[at:at+rp.n]
		if c.enc == colenc.Dict {
			w.dictPage(codes, width)
		} else if err := w.decimalPage(p, codes); err != nil {
			return err
		}
		at += rp.n
	}
	return nil
}

// runCodes appends the code of each selected row of run-length page p (its
// runs and codes were checked when the chunk was opened).
func (w *replyWriter) runCodes(p *page) {
	data := w.c.blob[p.off:p.end]
	for r := p.first; r < p.first+p.rows; {
		run, code, n := colenc.RLERun(data)
		for k := w.selCount(r, r+int(run)); k > 0; k-- {
			w.codes = append(w.codes, code)
		}
		data, r = data[n:], r+int(run)
	}
}

// packedCodes appends the code of each selected row of bit-packed page p:
// the 64 codes of a selection word with eight bits set or more are unpacked
// together, fewer are read one by one. A dictionary code is checked against
// the dictionary here.
func (w *replyWriter) packedCodes(p *page) error {
	pp := packedPage{w.c.blob[p.off:p.end], p.width}
	dictLen := uint32(w.c.dict.Len())
	var buf [windowBytes]byte
	var codes [64]uint32
	for g := 0; g < p.rows; g += 64 {
		m := w.pageWord(p, g)
		few := bits.OnesCount64(m) < 8 // read alone, not in a load of 64
		if m == 0 {
			continue
		} else if !few {
			pp.unpack(codes[:min(64, p.rows-g)], g, &buf)
		}
		for ; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			code := codes[i]
			if few {
				code = packedCode(pp.data, p.width, g+i)
			}
			if w.c.enc == colenc.Dict && code >= dictLen {
				return errCode
			}
			w.codes = append(w.codes, uint64(code))
		}
	}
	return nil
}

// dictPage writes a page of reply codes: run-length encoded where that is
// smaller, else bit-packed at width. Each run takes two bytes at least, so
// counting runs stops as soon as packing must win.
func (w *replyWriter) dictPage(codes []uint64, width int) {
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
	w.uvarint(uint64(len(codes)))
	if rle {
		w.byteVal(byte(colenc.RLEEnc))
		w.uvarint(uint64(size))
		w.b = colenc.RLEEncode(w.b, codes)
		return
	}
	w.byteVal(byte(colenc.Plain))
	w.uvarint(uint64(packed))
	w.b = colenc.PackUints(w.b, codes, width)
}

// decimalPage writes the selected rows of decimal page p, their codes given:
// the page's frame, the codes re-packed at its width, each escape renumbered
// to its place among the selected escapes, and those escapes' values in row
// order. The page's offset width indexes them all, as it did the page's.
func (w *replyWriter) decimalPage(p *page, codes []uint64) error {
	blob := w.c.blob
	w.raw = w.raw[:0]
	for k, code := range codes {
		if p.corr == 0 || code&3 != corrEscape { // bare offsets never escape
			continue
		}
		e := int(code >> 2)
		if e >= p.escapes {
			return errEscape
		}
		codes[k] = uint64(len(w.raw)/8)<<2 | corrEscape
		w.raw = append(w.raw, blob[p.end+8*e:p.end+8*e+8]...)
	}
	decimalPage{p.base, p.width - p.corr, p.corr, len(w.raw) / 8}.appendHeader(&w.encBuf, len(codes))
	w.b = colenc.PackUints(w.b, codes, p.width)
	w.b = append(w.b, w.raw...)
	return nil
}
