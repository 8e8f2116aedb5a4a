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
// their own, in the source chunk's kind and never Snappy-compressed, each page
// written by the writer's page writer. A node writes it (AppendSelected)
// without decoding a value; the coordinator opens it (OpenReply) with the
// checks OpenChunk makes and gathers it like any chunk. A reply page holds the
// selected rows of one source page (or of part of one, FOR only).

// OpenReply opens a projection reply of rows rows of type t, as AppendSelected
// wrote it, with every check of OpenChunk but the checksum. The chunk aliases
// body and holds no pooled buffer.
func OpenReply(t Type, rows int, body []byte) (*Chunk, error) {
	return openBlob(t, rows, body, false)
}

// AppendSelected appends the projection reply of the rows sel selects (nil
// selects every row) to dst: a chunk of sel's count of rows, which gathers to
// what AppendGather gathers from c under sel. Codes, offsets, plain values and
// code strings are copied, never decoded, a page's selection words 64 rows at
// a time. On error dst's appended tail is unspecified.
func (c *Chunk) AppendSelected(dst []byte, sel *bitmap.Bitmap) ([]byte, error) {
	w := replyWriter{c: c, count: c.rows}
	if sel != nil {
		if sel.Len() != c.rows {
			return dst, fmt.Errorf("lpq: selection has %d rows, chunk has %d", sel.Len(), c.rows)
		}
		if !sel.Full() {
			w.sel, w.bm, w.count = sel.Words(), sel, sel.Count()
		}
	}
	// Room for about the selected share of the chunk's bytes.
	w.b = slices.Grow(dst, 64+len(c.blob)*w.count/max(c.rows, 1))
	out, err := c.kind.reply(w)
	if err != nil {
		return dst, err
	}
	return out, nil
}

// replyWriter writes a projection reply: w.b, after the selection.
type replyWriter struct {
	encBuf
	c     *Chunk
	sel   []uint64       // the selection's words, nil for every row
	bm    *bitmap.Bitmap // the selection, nil for every row
	count int            // the rows selected

	codes []uint64    // every selected row's code; for a frame chunk, one page's
	pages []replyPage // the source pages they fall on, in order
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

// rowPages returns a plain or FSST reply: the chunk's header, then the pages
// holding a selected row, each of the selected rows' bytes as stored.
func (w *replyWriter) rowPages() ([]byte, error) {
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
			return nil, err
		}
		w.endPage(start, n)
	}
	return w.b, nil
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

// selectedCodes reads the code of each selected row of a dictionary or
// decimal chunk into w.codes, and the pages they fall on into w.pages.
func (w *replyWriter) selectedCodes() {
	w.codes = make([]uint64, 0, w.count)
	for pi := range w.c.pages {
		p := &w.c.pages[pi]
		before := len(w.codes)
		if p.rle {
			w.runCodes(p)
		} else {
			w.packedCodes(p)
		}
		if n := len(w.codes) - before; n > 0 {
			w.pages = append(w.pages, replyPage{pi, n})
		}
	}
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

// packedCodes appends the code of each selected row of bit-packed page p: a
// selection word's 64 codes unpacked together when eight or more are set.
func (w *replyWriter) packedCodes(p *page) {
	pp := packedPage{w.c.blob[p.off:p.end], p.width}
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
			w.codes = append(w.codes, uint64(code))
		}
	}
}
