package lpq

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"

	"github.com/fusionstore/fusion/internal/bitmap"
	"github.com/fusionstore/fusion/internal/bufpool"
	"github.com/fusionstore/fusion/internal/colenc"
	"github.com/fusionstore/fusion/internal/fsst"
	"github.com/fusionstore/fusion/internal/snappy"
)

// MaxChunkRows is the format's ceiling on the rows of one column chunk (and
// so of one row group): a little above the 30M-row row groups of the paper's
// full-scale files. Run-length pages let a few bytes declare any number of
// rows, so every reader bounds what it will allocate by this constant, and a
// footer that declares more is malformed.
const MaxChunkRows = 1 << 25

// Chunk is an opened column chunk: its CRC verified, its bytes decompressed,
// its dictionary and page directory parsed, and every count and length they
// declare checked against the bytes present — but no row decoded. The query
// kernels (SelectCodes, Scanner, Gather, AppendSelected here; filter,
// aggregate, group-by and top-k over a Scanner in package sql) compute on the
// encoded pages and touch only the rows a selection names.
//
// Values are validated where they are read: a bit-packed code beyond the
// dictionary, a string overrunning its page, an FSST code past the symbol
// table or escaping nothing, or a decimal escape past its page's values is an
// error from the kernel that reads it, never a panic, and decoding every row
// (DecodeChunk) rejects exactly what decoding page by page would.
//
// A Chunk is immutable after OpenChunk and safe for concurrent kernels. One
// opened from compressed bytes holds a pooled buffer until Release.
type Chunk struct {
	typ   Type
	rows  int
	blob  []byte // the chunk's decoded bytes: the caller's when stored uncompressed, else arena
	arena []byte // pooled backing of blob; nil when blob is the caller's or owned
	pages []page

	// The kind of the chunk's pages: Plain, Dict, FOR, Decimal or FSST.
	enc colenc.Encoding

	// Dictionary-encoded chunks only: the dictionary page decoded (it owns
	// its memory — string entries share one allocation, never the arena)
	// and the bit width of packed codes.
	dict  ColumnData
	width int

	// Decimal chunks only: the power of ten a row's integer is divided by.
	scale float64

	// FSST chunks only: the symbol table the code strings are decoded by.
	table *fsst.Table

	// Where the page count starts in blob: before it are the encoding byte
	// and the header of the kind — a decimal scale, a symbol table.
	head int
}

// page is one data page of the directory: rows [first, first+rows) encoded
// in blob[off:end]. In a dictionary chunk the page holds codes, run-length
// encoded when rle is set and bit-packed otherwise. A frame-of-reference page
// holds offsets from base, bit-packed at width. A decimal page's codes are
// packed at width too, each an offset from base above corr bits of correction
// (corrBits, or none on a page of exact rows); its escapes' raw values follow
// them, 8 bytes each from blob[end:] on.
type page struct {
	first, rows int
	off, end    int
	rle         bool

	base    int64
	width   int
	corr    int
	escapes int
}

// OpenChunk opens a self-contained chunk blob given its metadata. The chunk
// aliases raw when stored uncompressed, so raw must stay untouched until the
// chunk is released (or Own is called).
func OpenChunk(t Type, m ChunkMeta, raw []byte) (*Chunk, error) {
	if uint64(len(raw)) != m.Size {
		return nil, fmt.Errorf("lpq: chunk is %d bytes, metadata says %d: %w", len(raw), m.Size, ErrFormat)
	}
	if crc32.ChecksumIEEE(raw) != m.CRC {
		return nil, fmt.Errorf("lpq: chunk checksum mismatch: %w", ErrFormat)
	}
	return openBlob(t, m.NumValues, raw, m.Compressed)
}

// openBlob opens a chunk blob of rows rows of type t, Snappy-compressed or not.
func openBlob(t Type, rows int, raw []byte, compressed bool) (*Chunk, error) {
	if t > String {
		return nil, fmt.Errorf("lpq: unknown column type %d: %w", t, ErrFormat)
	}
	if rows < 0 || rows > MaxChunkRows {
		return nil, fmt.Errorf("lpq: chunk declares %d rows, the format allows %d: %w", rows, MaxChunkRows, ErrFormat)
	}
	c := &Chunk{typ: t, rows: rows, blob: raw}
	if compressed {
		n, err := snappy.DecodedLen(raw)
		if err != nil {
			return nil, fmt.Errorf("lpq: chunk decompression: %w", err)
		}
		c.arena = bufpool.Get(n)
		if c.blob, err = snappy.DecodeInto(c.arena, raw); err != nil {
			c.Release()
			return nil, fmt.Errorf("lpq: chunk decompression: %w", err)
		}
	}
	if err := c.parse(); err != nil {
		c.Release()
		return nil, err
	}
	return c, nil
}

// Release returns the chunk's pooled buffer. The chunk must not be used
// afterwards; nothing a kernel returned references the buffer. Releasing a
// chunk that holds none (stored uncompressed, or owned) is a no-op.
func (c *Chunk) Release() {
	if c.arena == nil {
		return
	}
	bufpool.Put(c.arena)
	c.arena, c.blob, c.pages = nil, nil, nil
}

// Own makes the chunk outlive both the caller's bytes and the pool, by moving
// its decoded bytes into memory of its own. This is the form a cache keeps.
func (c *Chunk) Own() {
	c.blob = append([]byte(nil), c.blob...)
	bufpool.Put(c.arena)
	c.arena = nil
}

// Type returns the column type the chunk was opened as.
func (c *Chunk) Type() Type { return c.typ }

// NumRows returns the chunk's row count.
func (c *Chunk) NumRows() int { return c.rows }

// Encoding returns the kind of the chunk's pages.
func (c *Chunk) Encoding() colenc.Encoding { return c.enc }

// Dict returns the dictionary page's values and true for a
// dictionary-encoded chunk. Callers must not modify them.
func (c *Chunk) Dict() (ColumnData, bool) { return c.dict, c.enc == colenc.Dict }

// parse reads the chunk header, the dictionary page and the page directory.
// A count is compared with the bytes that remain before anything is sized by
// it, and the directory grows as pages validate, so what a header declares
// costs nothing: memory follows the bytes actually present (at the worst a
// directory entry per one-row page).
func (c *Chunk) parse() error {
	// Scanners address the bytes with 32-bit offsets.
	if len(c.blob) < 1 || len(c.blob) > math.MaxInt32 {
		return ErrFormat
	}
	d := &decBuf{b: c.blob[1:]}
	c.enc = colenc.Encoding(c.blob[0])
	switch c.enc {
	case colenc.Plain:
	case colenc.Dict:
		if err := c.parseDict(d); err != nil {
			return err
		}
	case colenc.FOR:
		if c.typ != Int64 {
			return fmt.Errorf("lpq: frame-of-reference chunk of a %v column: %w", c.typ, ErrFormat)
		}
	case colenc.Decimal:
		scale := int(d.byteVal())
		if c.typ != Float64 || d.err != nil || scale >= len(decimalScales) {
			return fmt.Errorf("lpq: decimal chunk of a %v column, scale %d: %w", c.typ, scale, ErrFormat)
		}
		c.scale = decimalScales[scale]
	case colenc.FSST:
		if c.typ != String {
			return fmt.Errorf("lpq: FSST chunk of a %v column: %w", c.typ, ErrFormat)
		}
		table, n, err := fsst.ParseTable(d.b)
		if err != nil {
			return fmt.Errorf("lpq: FSST symbol table: %w", colenc.ErrCorrupt)
		}
		c.table, d.b = table, d.b[n:]
	default:
		return fmt.Errorf("lpq: unknown chunk encoding %d: %w", c.enc, ErrFormat)
	}
	c.head = len(c.blob) - len(d.b)
	numPages := d.uvarint()
	if d.err != nil || numPages > uint64(c.rows) {
		return ErrFormat
	}
	c.pages = make([]page, 0, min(numPages, 8)) // the writer's chunks have a few
	left := uint64(c.rows)
	for p := uint64(0); p < numPages; p++ {
		rows := d.uvarint()
		pg := page{width: c.width}
		if c.enc == colenc.Dict {
			switch colenc.Encoding(d.byteVal()) {
			case colenc.Plain:
			case colenc.RLEEnc:
				pg.rle = true
			default:
				return colenc.ErrCorrupt
			}
		}
		byteLen := d.uvarint()
		if d.err != nil || rows == 0 || byteLen > uint64(len(d.b)) {
			return ErrFormat
		}
		if rows > left {
			return fmt.Errorf("lpq: pages hold more than the %d rows chunk metadata says: %w", c.rows, ErrFormat)
		}
		body := &decBuf{b: d.b[:byteLen]}
		d.b = d.b[byteLen:]
		if c.enc == colenc.FOR || c.enc == colenc.Decimal {
			if err := pg.parseFrame(body, c.enc == colenc.Decimal); err != nil {
				return err
			}
		}
		// The page must be long enough for its rows. A run-length page has
		// no such minimum — two bytes can stand for any number of rows — so
		// its runs are walked here, and the kernels rely on it.
		var minBits uint64
		switch {
		case pg.rle:
			if err := checkRuns(body.b, rows, uint64(c.dict.Len())); err != nil {
				return err
			}
		case c.typ == String && c.enc != colenc.Dict:
			minBits = rows * 8 // a length byte per value
		case c.enc != colenc.Plain:
			minBits = rows * uint64(pg.width)
		default:
			minBits = rows * 64
		}
		if minBits > 8*uint64(len(body.b)) {
			return colenc.ErrCorrupt
		}
		pg.first, pg.rows = c.rows-int(left), int(rows)
		pg.off = len(c.blob) - len(d.b) - len(body.b)
		pg.end = pg.off + len(body.b)
		if c.enc == colenc.Decimal {
			// The packed codes end where the escapes' values begin, all of
			// which must be there.
			pg.end = pg.off + int((minBits+7)/8)
			if 8*uint64(pg.escapes) > uint64(len(body.b))-(minBits+7)/8 {
				return colenc.ErrCorrupt
			}
		}
		c.pages = append(c.pages, pg)
		left -= rows
	}
	if left != 0 {
		return fmt.Errorf("lpq: pages hold %d rows, chunk metadata says %d: %w", uint64(c.rows)-left, c.rows, ErrFormat)
	}
	return nil
}

// parseFrame reads the header of a frame-of-reference or decimal page — base,
// width and, for a decimal page, the escape count — leaving body at the packed
// offsets or codes. The largest offset must not carry base past int64, a code
// must fit 32 bits, and a decimal page's offset field must index every escape
// (a page with no corrections has none). A decimal page's width becomes its
// codes': the offset's and the correction's.
func (pg *page) parseFrame(body *decBuf, decimal bool) error {
	pg.base = body.i64()
	pg.width = int(body.byteVal())
	var escapes uint64
	if decimal {
		if escapes = body.uvarint(); pg.width&corrected != 0 {
			pg.width, pg.corr = pg.width&^corrected, corrBits
		}
	}
	if body.err != nil || pg.width < 1 || pg.width+pg.corr > colenc.MaxFrameWidth ||
		pg.base > math.MaxInt64-(1<<pg.width-1) || escapes > uint64(pg.corr/corrBits)<<pg.width {
		return colenc.ErrCorrupt
	}
	pg.escapes, pg.width = int(escapes), pg.width+pg.corr
	return nil
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

// parseDict decodes the dictionary page.
func (c *Chunk) parseDict(d *decBuf) error {
	n := d.uvarint()
	if d.err != nil || n > math.MaxInt32 {
		return ErrFormat
	}
	dictLen := int(n)
	c.dict.Type = c.typ
	c.width = colenc.BitWidth(uint64(max(dictLen, 1) - 1))
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
		return err
	}
	d.b = d.b[size:]
	return nil
}

// errCode reports a dictionary code with no dictionary entry.
var errCode = fmt.Errorf("lpq: dictionary code out of range: %w", colenc.ErrCorrupt)

// packedCode extracts the idx-th width-bit code of a bit-packed page. The
// directory guarantees the page holds it.
func packedCode(data []byte, width, idx int) uint32 {
	bit := idx * width
	if at := bit >> 3; at+8 <= len(data) {
		return uint32(binary.LittleEndian.Uint64(data[at:])>>(bit&7)) & (1<<width - 1)
	}
	return packedTailCode(data, width, bit)
}

// packedTailCode is packedCode within eight bytes of the page's end, where a
// whole-word load would overrun it.
//
//go:noinline
func packedTailCode(data []byte, width, bit int) uint32 {
	var u uint64
	for i, b := range data[bit>>3:] {
		u |= uint64(b) << (8 * i)
	}
	return uint32(u>>(bit&7)) & (1<<width - 1)
}

// packedPage reads runs of a bit-packed page's codes straight from 64-bit
// loads, which a kernel takes off the word with a shift and a mask and folds
// into its result: no array of codes sits between the page and the kernel.
// A run is read in place, or — when it ends within 8 bytes of the page's end —
// from a copy of its bytes with 8 zero bytes after them (window), so every
// load is a whole one and no page end is special.
//
// The filters read a page 64 codes — one result word — at a time. Such a
// group starts on a byte boundary (a page's first code does, and so every
// 64th after it), so each load holds perGroupLoad whole codes: 8, 4 or 2 for
// widths up to 8, 15 and 28 bits, one if wider. unpack starts anywhere and
// takes the codes a load holds at any bit offset.
type packedPage struct {
	data  []byte
	width int
}

// windowBytes bounds a run's bytes: BatchRows codes of the widest width, from
// any bit offset, and the 8 a load may read past them.
const windowBytes = BatchRows*colenc.MaxFrameWidth/8 + 1 + 8

// window returns the bytes the n codes from the idx-th are loaded from, at
// least 8 past the last, and the bit offset there of the first. n is at most
// BatchRows.
func (pp packedPage) window(idx, n int, buf *[windowBytes]byte) ([]byte, int) {
	bit := idx * pp.width
	at, end := bit>>3, (bit+n*pp.width+7)>>3
	if end+8 <= len(pp.data) {
		return pp.data, bit
	}
	m := copy(buf[:], pp.data[at:end])
	clear(buf[m : m+8])
	return buf[:m+8], bit & 7
}

// perGroupLoad is how many whole codes each load of a group holds.
func (pp packedPage) perGroupLoad() int {
	switch {
	case pp.width <= 8:
		return 8
	case pp.width <= 15:
		return 4
	case pp.width <= 28:
		return 2
	}
	return 1
}

// inRange returns the n (at most 64) codes from the idx-th, the first of a
// group, as a word: bit k set iff code idx+k lies in [from, from+bound). Its
// difference from from, wrapping far above bound below from, borrows when
// bound is subtracted; the borrow is added into the word doubled, so the
// first code ends up highest and the word is reversed at the end. Every load
// is used whole, and the bits of codes past the n-th are dropped.
func (pp packedPage) inRange(idx, n int, from, bound uint64, buf *[windowBytes]byte) uint64 {
	data, bit := pp.window(idx, n, buf)
	w, per := pp.width, pp.perGroupLoad()
	mask, sh := uint64(1)<<w-1, uint(w)&63
	var acc uint64
	k := 0
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

// lookup returns the verdicts lut holds for the n (at most 64) codes from the
// idx-th, the first of a group, as a word, as inRange does, and whether one
// of them is beyond the dictionary (lut value 2).
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

// unpack extracts the len(dst) codes from the idx-th on. Where one load holds
// four codes or more at any bit offset (57/width of them), each load is used
// whole; wider codes are loaded one at a time.
func (pp packedPage) unpack(dst []uint32, idx int, buf *[windowBytes]byte) {
	data, bit := pp.window(idx, len(dst), buf)
	w := pp.width
	mask, sh := uint64(1)<<w-1, uint(w)&63
	k := 0
	if per := 57 / w; per >= 4 {
		for ; k+per <= len(dst); k += per {
			u := binary.LittleEndian.Uint64(data[bit>>3:]) >> (bit & 7)
			out := dst[k : k+per]
			for i := range out {
				out[i] = uint32(u & mask)
				u >>= sh
			}
			bit += per * w
		}
	}
	for ; k < len(dst); k++ {
		dst[k] = uint32(binary.LittleEndian.Uint64(data[bit>>3:]) >> (bit & 7) & mask)
		bit += w
	}
}

// orWord ORs acc's bits into words from row r on, r not necessarily on a word
// boundary. acc has no bit past the bitmap's last row, so the second word is
// touched only when it exists.
func orWord(words []uint64, r int, acc uint64) {
	words[r>>6] |= acc << (r & 63)
	if hi := acc >> (64 - r&63); hi != 0 {
		words[r>>6+1] |= hi
	}
}

// SelectCodes turns a verdict per dictionary entry into a verdict per row:
// the result has bit r set iff match has the bit of row r's code set. With a
// predicate evaluated once over the dictionary this is the whole filter. A
// bit-packed page is read 64 rows — one result word — at a time: 1-, 2-, 4-
// and 8-bit codes a packed byte at a time through a table of their verdicts,
// other widths a code at a time through a table indexed by code, both built
// once per call. A run-length page is read a run at a time (skipped, or set in
// bulk).
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

// byteVerdicts is SelectCodes' table for codes that fill a byte exactly
// (width 1, 2, 4 or 8): for every byte value, the verdicts of its 8/width
// codes in its low bits, lowest code first, and byteMiss if one of them is
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
// entries, where a table per call would cost more than it saves: the codes
// come through a Scanner, which checks them.
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

// SelectInts is the filter over a frame-of-reference chunk: the result has bit
// r set iff row r's value lies in [lo, hi] — or, with outside set, iff it does
// not. Each of the six comparisons with an integer is one such test. The
// bounds are translated once per page into offset space (v in [lo, hi] iff
// v-base in [lo-base, hi-base], clamped to the page's width), and a page is
// read 64 rows — one result word — at a time, each offset compared as its
// load yields it: one unsigned compare folded into the word. A page the bounds
// cover or miss entirely is not read at all.
func (c *Chunk) SelectInts(lo, hi int64, outside bool) (*bitmap.Bitmap, error) {
	if c.enc != colenc.FOR {
		return nil, fmt.Errorf("lpq: SelectInts over a %v chunk", c.enc)
	}
	out := bitmap.New(c.rows)
	words := out.Words()
	var buf [windowBytes]byte
	for _, p := range c.pages {
		top := p.base + (1<<p.width - 1) // the directory checked it fits
		if lo > hi || hi < p.base || lo > top {
			if outside {
				out.SetRange(p.first, p.first+p.rows)
			}
			continue
		}
		// Offsets of the bounds, exact as unsigned differences.
		from := uint64(max(lo, p.base)) - uint64(p.base)
		span := uint64(min(hi, top)) - uint64(max(lo, p.base))
		if span == 1<<p.width-1 {
			if !outside {
				out.SetRange(p.first, p.first+p.rows)
			}
			continue
		}
		pp := packedPage{c.blob[p.off:p.end], p.width}
		for g := 0; g < p.rows; g += 64 {
			n := min(64, p.rows-g)
			acc := pp.inRange(g, n, from, span+1, &buf)
			if outside {
				acc ^= 1<<n - 1
			}
			orWord(words, p.first+g, acc)
		}
	}
	return out, nil
}

// BatchRows is the most rows a Scanner yields per step.
const BatchRows = 256

// Scanner walks an opened chunk's selected rows in ascending order, a batch
// of up to BatchRows at a time, fetching only those rows from the encoded
// pages: a plain numeric value by its offset, a dictionary value by
// unpacking just its code, run-length and string pages in one forward walk
// (an FSST page's code strings decoded as the batch is fetched).
// Scanners over chunks of one row group under the same selection step in
// lockstep — batch boundaries depend on the selection alone — which is what
// lets a kernel fold several columns row by row with no column materialised.
//
// A batch exposes Len and Row, plus Codes for a dictionary chunk, plus the
// values: Ints or Floats for the numeric types (read through the dictionary
// if there is one), and for strings the dictionary entry of each code or, for
// a plain or FSST chunk, Bytes. The zero Scanner is ready for Chunk.Scan; it
// is large (≈9 KB), so kernels keep it on their stack.
type Scanner struct {
	c   *Chunk
	err error

	// Selection cursor: the selection's words, the word in hand with its
	// consumed bits cleared, and its index; or, when every row is selected,
	// the next row.
	all   bool
	sel   []uint64
	word  uint64
	wi    int
	first int // with no selection: the current batch's first row
	next  int

	// Page cursor, and the forward-walk state inside that page for the
	// encodings without random access: pos is the blob offset of the next
	// unread run or string, at the row it starts at.
	pi      int
	walking int // page the walk state belongs to, -1 for none
	pos, at int
	runCode uint32

	n      int
	rows   [BatchRows]int32
	codes  [BatchRows]uint32
	ints   [BatchRows]int64
	floats [BatchRows]float64
	from   [BatchRows]uint32 // strings: strs[from[i]:to[i]]
	to     [BatchRows]uint32
	window [windowBytes]byte // a dense run's bytes near its page's end

	// Strings: the bytes from and to index — the chunk's for plain pages,
	// decoded (the batch's values, the buffer kept across batches and scans)
	// for FSST pages, or the chunk's code strings when codesOnly leaves
	// decoding to the kernel.
	strs      []byte
	decoded   []byte
	codesOnly bool
}

// Scan points sc at the rows of c that sel selects (nil selects every row).
// A selection of every row scans as nil does, with no row list kept.
func (c *Chunk) Scan(sc *Scanner, sel *bitmap.Bitmap) error {
	*sc = Scanner{c: c, all: sel == nil, wi: -1, walking: -1, decoded: sc.decoded[:0]}
	if sel != nil {
		if sel.Len() != c.rows {
			return fmt.Errorf("lpq: selection has %d rows, chunk has %d", sel.Len(), c.rows)
		}
		sc.all = sel.Full()
		sc.sel = sel.Words()
	}
	return nil
}

// Err returns the error that ended the scan early, if any.
func (sc *Scanner) Err() error { return sc.err }

// Len returns the number of rows in the current batch.
func (sc *Scanner) Len() int { return sc.n }

// Row returns the row number of element i of the current batch. With no
// selection the batch is rows first, first+1, …, and no list is kept.
func (sc *Scanner) Row(i int) int32 {
	if sc.all {
		return int32(sc.first + i)
	}
	return sc.rows[i]
}

// Codes returns the current batch's dictionary codes (dictionary chunks).
func (sc *Scanner) Codes() []uint32 { return sc.codes[:sc.n] }

// Ints returns the current batch's values (Int64 chunks).
func (sc *Scanner) Ints() []int64 { return sc.ints[:sc.n] }

// Floats returns the current batch's values (Float64 chunks).
func (sc *Scanner) Floats() []float64 { return sc.floats[:sc.n] }

// Bytes returns value i of the current batch of a plain or FSST string chunk.
// It aliases the chunk, or for FSST the batch's decoded values, which the next
// batch overwrites: copy what must outlive either.
func (sc *Scanner) Bytes(i int) []byte { return sc.strs[sc.from[i]:sc.to[i]] }

// Next advances to the next batch and reports whether there is one; false
// means the selection is exhausted or, if Err is set, a page was malformed.
func (sc *Scanner) Next() bool {
	if sc.err != nil {
		return false
	}
	sc.n = sc.selectRows()
	sc.decoded = sc.decoded[:0]
	for i := 0; i < sc.n; {
		r := int(sc.Row(i))
		for sc.pi < len(sc.c.pages) && r >= sc.c.pages[sc.pi].first+sc.c.pages[sc.pi].rows {
			sc.pi++
		}
		if sc.pi == len(sc.c.pages) {
			sc.err = fmt.Errorf("lpq: selected row %d is beyond the chunk's %d rows", r, sc.c.rows)
			return false
		}
		p := &sc.c.pages[sc.pi]
		// Elements i to j of the batch are the ones on this page.
		j := sc.n
		if end := p.first + p.rows; sc.all {
			j = min(j, i+end-r)
		} else {
			for int(sc.rows[j-1]) >= end {
				j--
			}
		}
		if sc.err = sc.fetch(p, i, j); sc.err != nil {
			return false
		}
		i = j
	}
	sc.strs = sc.c.blob
	if sc.c.enc == colenc.FSST && !sc.codesOnly {
		sc.strs = sc.decoded
	}
	return sc.n > 0
}

// selectRows collects the next batch of selected row numbers.
func (sc *Scanner) selectRows() int {
	if sc.all {
		n := min(BatchRows, sc.c.rows-sc.next)
		sc.first, sc.next = sc.next, sc.next+n
		return n
	}
	n := 0
	for n < BatchRows {
		for sc.word == 0 {
			if sc.wi++; sc.wi >= len(sc.sel) {
				return n
			}
			sc.word = sc.sel[sc.wi]
		}
		for base := sc.wi * 64; sc.word != 0 && n < BatchRows; n++ {
			sc.rows[n] = int32(base + bits.TrailingZeros64(sc.word))
			sc.word &= sc.word - 1
		}
	}
	return n
}

// fetch fills the batch's codes and values for elements i to j, all on page p.
func (sc *Scanner) fetch(p *page, i, j int) error {
	c := sc.c
	// Consecutive rows — no selection at all, or a dense stretch of one —
	// are read as one run of the page; rows lists the others.
	first := int(sc.Row(i))
	dense := sc.all || int(sc.rows[j-1])-first == j-i-1
	rows := sc.rows[i:j]
	if c.enc == colenc.FSST {
		if err := sc.walkStrings(p, i, j); err != nil || sc.codesOnly {
			return err
		}
		var err error
		if sc.decoded, err = c.table.DecodeSpans(sc.decoded, c.blob, sc.from[i:j], sc.to[i:j]); err != nil {
			return errFSSTCode
		}
		return nil
	}
	if c.enc == colenc.Plain {
		if c.typ == String {
			return sc.walkStrings(p, i, j)
		}
		at := func(r int) int { return p.off + 8*(r-p.first) }
		switch {
		case c.typ == Int64 && dense:
			src := c.blob[at(first):at(first+j-i)]
			for k := range sc.ints[i:j] {
				sc.ints[i+k] = int64(binary.LittleEndian.Uint64(src[8*k:]))
			}
		case c.typ == Int64:
			for k, r := range rows {
				sc.ints[i+k] = int64(binary.LittleEndian.Uint64(c.blob[at(int(r)):]))
			}
		case dense:
			src := c.blob[at(first):at(first+j-i)]
			for k := range sc.floats[i:j] {
				sc.floats[i+k] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*k:]))
			}
		default:
			for k, r := range rows {
				sc.floats[i+k] = math.Float64frombits(binary.LittleEndian.Uint64(c.blob[at(int(r)):]))
			}
		}
		return nil
	}
	// Every other kind reads a bit-packed or run-length code per row first.
	codes := sc.codes[i:j]
	if p.rle {
		sc.walkRuns(p, i, j, dense)
	} else {
		data := c.blob[p.off:p.end]
		if dense {
			packedPage{data, p.width}.unpack(codes, first-p.first, &sc.window)
		} else {
			for k, r := range rows {
				codes[k] = packedCode(data, p.width, int(r)-p.first)
			}
		}
	}
	switch c.enc {
	case colenc.FOR:
		// The page directory made sure base plus the widest offset fits.
		for k, code := range codes {
			sc.ints[i+k] = p.base + int64(code)
		}
		return nil
	case colenc.Decimal:
		return c.decimals(p, codes, sc.floats[i:j])
	}
	// Resolve the values, checking bit-packed codes as they are used (a
	// run-length page's were checked when the chunk was opened).
	switch c.typ {
	case Int64:
		dict, dst := c.dict.Ints, sc.ints[i:j]
		for k, code := range codes {
			if int(code) >= len(dict) {
				return errCode
			}
			dst[k] = dict[code]
		}
	case Float64:
		dict, dst := c.dict.Floats, sc.floats[i:j]
		for k, code := range codes {
			if int(code) >= len(dict) {
				return errCode
			}
			dst[k] = dict[code]
		}
	default:
		for _, code := range codes {
			if int(code) >= len(c.dict.Strings) {
				return errCode
			}
		}
	}
	return nil
}

// enter resets the forward-walk state on first touching a page.
func (sc *Scanner) enter(p *page) {
	if sc.walking != sc.pi {
		sc.walking, sc.pos, sc.at = sc.pi, p.off, p.first
	}
}

// errEscape reports a decimal code that escapes to a value past its page's
// list.
var errEscape = fmt.Errorf("lpq: decimal escape past its page's values: %w", colenc.ErrCorrupt)

// decimals turns codes of decimal page p into dst's values: each row's integer
// divided by the scale and its bits moved by the ulp its correction names —
// one table load, no branch — and then, only if a code escaped, each escape's
// raw value from the page's list, its index checked against the list.
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

// walkRuns resolves rows[i:j] of a run-length page (checked when the chunk
// was opened): runs are parsed forward until the one holding each row, so an
// unselected run costs two varints, and consecutive rows are filled a run at a
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

// errFSSTCode reports an FSST code past the symbol table, or an escape as the
// last byte of a code string.
var errFSSTCode = fmt.Errorf("lpq: FSST code string does not decode: %w", colenc.ErrCorrupt)

// walkStrings locates rows[i:j] of a plain or FSST string page, skipping over
// the values between them by their length prefixes.
func (sc *Scanner) walkStrings(p *page, i, j int) error {
	sc.enter(p)
	blob := sc.c.blob
	for k := i; k < j; k++ {
		for r := int(sc.Row(k)); sc.at <= r; sc.at++ {
			if sc.pos >= p.end {
				return colenc.ErrCorrupt
			}
			l, n := uint64(blob[sc.pos]), 1
			if l >= 0x80 {
				if l, n = binary.Uvarint(blob[sc.pos:p.end]); n <= 0 {
					return colenc.ErrCorrupt
				}
			}
			if l > uint64(p.end-sc.pos-n) {
				return colenc.ErrCorrupt
			}
			sc.from[k] = uint32(sc.pos + n)
			sc.pos += n + int(l)
			sc.to[k] = uint32(sc.pos)
		}
	}
	return nil
}

// gatherFlush is how many bytes of plain strings Gather collects before it
// turns them into one backing allocation: about a data page's worth.
const gatherFlush = 256 << 10

// Gather decodes the rows sel selects (nil selects every row) into column
// values: AppendGather onto an empty column sized for them.
func (c *Chunk) Gather(sel *bitmap.Bitmap) (ColumnData, error) {
	count := c.rows
	if sel != nil {
		count = sel.Count()
	}
	out, err := c.AppendGather(MakeColumn(c.typ, count).Window(0, count), sel)
	if err != nil {
		return ColumnData{}, err
	}
	return out, nil
}

// AppendGather appends the values of the rows sel selects (nil selects every
// row) to dst, a column of the chunk's type, and returns it — Gather for a
// caller that has somewhere for the values to go. Handed a zero-length,
// capacity-clipped window of a larger column (dst.Ints[off:off:off+n] for a
// selection of n rows), it decodes straight into that window and touches
// nothing outside it, so the chunks of a result column decode into their own
// windows in parallel (ColumnData.Window). Strings cost one allocation per
// dictionary or per gatherFlush bytes gathered, not one per value, and never
// alias the chunk. On error dst's appended tail is unspecified.
func (c *Chunk) AppendGather(dst ColumnData, sel *bitmap.Bitmap) (ColumnData, error) {
	if dst.Type != c.typ {
		return dst, fmt.Errorf("lpq: cannot gather a %v chunk into a %v column", c.typ, dst.Type)
	}
	var sc Scanner
	if err := c.Scan(&sc, sel); err != nil {
		return dst, err
	}
	switch {
	case c.typ == Int64:
		for sc.Next() {
			dst.Ints = append(dst.Ints, sc.Ints()...)
		}
	case c.typ == Float64:
		for sc.Next() {
			dst.Floats = append(dst.Floats, sc.Floats()...)
		}
	case c.enc == colenc.Dict:
		dict := c.dict.Strings
		for sc.Next() {
			codes := sc.Codes()
			n := len(dst.Strings)
			dst.Strings = slices.Grow(dst.Strings, len(codes))[:n+len(codes)]
			for k, code := range codes {
				dst.Strings[n+k] = dict[code]
			}
		}
	default:
		// Selected bytes collect in a pooled buffer and become one string,
		// which the values then slice. An FSST chunk's selected rows are
		// decoded straight into it, a batch per call.
		sc.codesOnly = c.enc == colenc.FSST
		buf := bufpool.Get(gatherFlush)
		count := c.rows
		if sel != nil {
			count = sel.Count()
		}
		lens := make([]int, 0, count) // sized once: it never grows
		flush := func() {
			backing := string(buf)
			for pos, i := 0, 0; i < len(lens); i++ {
				dst.Strings = append(dst.Strings, backing[pos:pos+lens[i]])
				pos += lens[i]
			}
			buf, lens = buf[:0], lens[:0]
		}
		// room makes the rented buffer hold n more bytes.
		room := func(n int) {
			if len(buf)+n > cap(buf) && len(buf) > 0 {
				flush()
			}
			if n > cap(buf) {
				bufpool.Put(buf)
				buf = bufpool.Get(n)
			}
		}
		for sc.Next() {
			if sc.codesOnly {
				from, to := sc.from[:sc.n], sc.to[:sc.n]
				need := 0
				for k := range from {
					need += fsst.MaxDecodedLen(int(to[k] - from[k]))
				}
				room(need)
				var err error
				if buf, err = c.table.DecodeSpans(buf, c.blob, from, to); err != nil {
					bufpool.Put(buf)
					return dst, errFSSTCode
				}
				for k := range from {
					lens = append(lens, int(to[k]-from[k]))
				}
				continue
			}
			for i := 0; i < sc.Len(); i++ {
				b := sc.Bytes(i)
				room(len(b))
				buf = append(buf, b...)
				lens = append(lens, len(b))
			}
		}
		flush()
		bufpool.Put(buf)
	}
	return dst, sc.Err()
}
