package lpq

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"sort"

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
// its header and page directory parsed, and every count and length they
// declare checked against the bytes present — but no row decoded. The query
// kernels (SelectCodes, SelectInts, Scanner, Gather, AppendSelected here; the
// rest over a Scanner in package sql) touch only the rows a selection names.
//
// Values are validated where they are read: a bad code, string, FSST code
// string or decimal escape is an error from the kernel that reads it, never a
// panic, and DecodeChunk rejects exactly what decoding page by page would.
//
// A Chunk is immutable after OpenChunk and safe for concurrent kernels. One
// opened from compressed bytes holds a pooled buffer until Release.
type Chunk struct {
	typ   Type
	rows  int
	blob  []byte // the chunk's decoded bytes: the caller's when stored uncompressed, else arena
	arena []byte // pooled backing of blob; nil when blob is the caller's or owned
	pages []page

	enc  colenc.Encoding // the kind of the chunk's pages,
	kind pageKind        // and its entry in kinds

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
// in blob[off:end]. The other fields are a kind's: rle a dictionary page's;
// base, width, delta and step a frame-of-reference page's; base, width, corr
// and escapes a decimal page's.
type page struct {
	first, rows int
	off, end    int
	rle         bool

	base    int64
	width   int
	delta   bool
	step    int64
	corr    int
	escapes int
}

// pageKind is everything the format says about one kind of page, each kind
// in a file of its own (kind_*.go): the column types it holds, whether the
// writer may Snappy-compress it, its chunk header, a directory entry after
// its row count (parsePage checks the body can hold pg's rows), the writer's
// attempt (encode beats raw, the plain size, or chosen, the chunk a kind
// before it in writeOrder made), a Scanner's fetch and the projection reply.
// No method takes a pointer its caller may keep on the stack, which an
// interface call would move to the heap: Scanner.fetch dispatches by type.
type pageKind interface {
	holds(t Type) bool
	snappy() bool
	parseHeader(c *Chunk, b []byte) ([]byte, error)
	parsePage(c *Chunk, pg *page, dir []byte) ([]byte, error)
	encode(col ColumnData, pageRows, raw int, chosen []byte) ([]byte, bool)
	fetch(sc *Scanner, p *page, i, j int) error
	reply(w replyWriter) ([]byte, error)
}

// stringKind is a kind that holds String columns: it appends the values of
// the rows sel selects to dst.
type stringKind interface {
	appendStrings(c *Chunk, dst []string, sel *bitmap.Bitmap) ([]string, error)
}

// reachKind is a kind that narrows a top-k scan: it marks in words the rows
// of page p from row from on whose value may reach cut, or reports false to
// have them all read.
type reachKind interface {
	reaching(c *Chunk, p *page, from int, cut Cut, words []uint64) bool
}

// kinds is the format's table of page kinds, indexed by the encoding byte
// that opens a chunk.
var kinds = [...]pageKind{
	colenc.Plain:   plainKind{},
	colenc.Dict:    dictKind{},
	colenc.FOR:     frameKind{},
	colenc.Decimal: decimalKind{},
	colenc.FSST:    fsstKind{},
}

// fetch is the table's entry for a Scanner: it fills elements i to j of the
// batch, all on page p, by a type switch over the kinds, not an interface
// call, since the Scanner lives on its kernel's stack.
func (sc *Scanner) fetch(p *page, i, j int) error {
	switch k := sc.c.kind.(type) {
	case plainKind:
		return k.fetch(sc, p, i, j)
	case dictKind:
		return k.fetch(sc, p, i, j)
	case frameKind:
		return k.fetch(sc, p, i, j)
	case decimalKind:
		return k.fetch(sc, p, i, j)
	}
	return fsstKind{}.fetch(sc, p, i, j)
}

// writeOrder is the order the writer tries the kinds in: a dictionary, a
// frame of reference or decimal that beats it, then FSST or plain.
var writeOrder = [...]colenc.Encoding{colenc.Dict, colenc.FOR, colenc.Decimal, colenc.FSST, colenc.Plain}

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

// parse reads the chunk header and the page directory. A count is compared
// with the bytes that remain before anything is sized by it, and the
// directory grows as pages validate: memory follows the bytes present.
func (c *Chunk) parse() error {
	// Scanners address the bytes with 32-bit offsets.
	if len(c.blob) < 1 || len(c.blob) > math.MaxInt32 {
		return ErrFormat
	}
	c.enc = colenc.Encoding(c.blob[0])
	if int(c.enc) >= len(kinds) || kinds[c.enc] == nil {
		return fmt.Errorf("lpq: unknown chunk encoding %d: %w", c.enc, ErrFormat)
	}
	if c.kind = kinds[c.enc]; !c.kind.holds(c.typ) {
		return fmt.Errorf("lpq: %v chunk of a %v column: %w", c.enc, c.typ, ErrFormat)
	}
	rest, err := c.kind.parseHeader(c, c.blob[1:])
	if err != nil {
		return err
	}
	c.head = len(c.blob) - len(rest)
	d := decBuf{b: rest}
	numPages := d.uvarint()
	if d.err != nil || numPages > uint64(c.rows) {
		return ErrFormat
	}
	c.pages = make([]page, 0, min(numPages, 8)) // the writer's chunks have a few
	left := uint64(c.rows)
	for p := uint64(0); p < numPages; p++ {
		rows := d.uvarint()
		if d.err != nil || rows == 0 || rows > left {
			return fmt.Errorf("lpq: a page of %d rows where %d are left: %w", rows, left, ErrFormat)
		}
		c.pages = append(c.pages, page{first: c.rows - int(left), rows: int(rows)})
		if d.b, err = c.kind.parsePage(c, &c.pages[len(c.pages)-1], d.b); err != nil {
			return err
		}
		left -= rows
	}
	if left != 0 {
		return fmt.Errorf("lpq: pages hold %d rows, chunk metadata says %d: %w", uint64(c.rows)-left, c.rows, ErrFormat)
	}
	return nil
}

// pageBody reads the byte length that ends a directory entry from dir, and
// returns the body it covers, which pg.off and pg.end span, and what follows.
func (c *Chunk) pageBody(pg *page, dir []byte) (body, rest []byte, err error) {
	n, k := binary.Uvarint(dir)
	if k <= 0 || n > uint64(len(dir)-k) {
		return nil, nil, ErrFormat
	}
	pg.off = len(c.blob) - len(dir) + k
	pg.end = pg.off + int(n)
	return dir[k : k+int(n)], dir[k+int(n):], nil
}

// holdsBits checks that a page body has room for bits bits: its rows' least.
func holdsBits(body []byte, bits uint64) error {
	if bits > 8*uint64(len(body)) {
		return colenc.ErrCorrupt
	}
	return nil
}

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
// loads, which a kernel takes off the word with a shift and a mask. A run is
// read in place, or — within 8 bytes of the page's end — from a copy with 8
// zero bytes after it (window), so every load is a whole one.
//
// The filters read a page 64 codes — one result word — at a time. Such a
// group starts on a byte boundary, so each load holds perGroupLoad whole
// codes. unpack starts anywhere and takes the codes a load holds.
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

// unpack extracts the len(dst) codes from the idx-th on. Where one load holds
// four codes or more at any bit offset (57/width of them), each load is used
// whole; where it holds two or three, two codes are taken from it; wider codes
// are loaded one at a time.
func (pp packedPage) unpack(dst []uint32, idx int, buf *[windowBytes]byte) {
	data, bit := pp.window(idx, len(dst), buf)
	w := pp.width
	mask, sh := uint64(1)<<w-1, uint(w)&63
	k := 0
	switch per := 57 / w; {
	case per >= 4:
		for ; k+per <= len(dst); k += per {
			u := binary.LittleEndian.Uint64(data[bit>>3:]) >> (bit & 7)
			out := dst[k : k+per]
			for i := range out {
				out[i] = uint32(u & mask)
				u >>= sh
			}
			bit += per * w
		}
	case per >= 2:
		for ; k+2 <= len(dst); k += 2 {
			u := binary.LittleEndian.Uint64(data[bit>>3:]) >> (bit & 7)
			dst[k], dst[k+1] = uint32(u&mask), uint32(u>>sh&mask)
			bit += 2 * w
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

// selBits returns the bits of rows [r, r+n) of the selection words sel, n at
// most 64, lowest row lowest; all n set when sel is nil, selecting every row.
func selBits(sel []uint64, r, n int) uint64 {
	m := ^uint64(0)
	if sel != nil {
		w, sh := r>>6, uint(r&63)
		if m = sel[w] >> sh; sh != 0 && w+1 < len(sel) {
			m |= sel[w+1] << (64 - sh)
		}
	}
	if n < 64 {
		m &= 1<<n - 1
	}
	return m
}

// BatchRows is the most rows a Scanner yields per step.
const BatchRows = 256

// Scanner walks an opened chunk's selected rows in ascending order, a batch
// of up to BatchRows at a time, fetching only those rows from the encoded
// pages, each as its kind's fetch does. Scanners over the chunks of one row
// group under the same selection step in lockstep — batch boundaries depend
// on the selection alone — so a kernel folds several columns row by row.
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
	value   int64 // delta pages: the value of row at

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
	sc.decoded, sc.strs = sc.decoded[:0], sc.c.blob
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

// dense reports whether elements i to j of the batch are consecutive rows:
// no selection, or a dense stretch of one, read as one run of their page.
func (sc *Scanner) dense(i, j int) bool {
	return sc.all || int(sc.rows[j-1]-sc.rows[i]) == j-i-1
}

// readCodes reads the codes of elements i to j, all on page p, into the
// batch: walking a run-length page, or unpacking a bit-packed one.
func (sc *Scanner) readCodes(p *page, i, j int) []uint32 {
	codes := sc.codes[i:j]
	switch dense := sc.dense(i, j); {
	case p.rle:
		sc.walkRuns(p, i, j, dense)
	case dense:
		packedPage{sc.c.blob[p.off:p.end], p.width}.unpack(codes, int(sc.Row(i))-p.first, &sc.window)
	default:
		data := sc.c.blob[p.off:p.end]
		for k, r := range sc.rows[i:j] {
			codes[k] = packedCode(data, p.width, int(r)-p.first)
		}
	}
	return codes
}

// enter resets the forward-walk state on first touching a page.
func (sc *Scanner) enter(p *page) {
	if sc.walking != sc.pi {
		sc.walking, sc.pos, sc.at, sc.value = sc.pi, p.off, p.first, p.base
	}
}

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

// Gather decodes the rows sel selects (nil selects every row) into column
// values: AppendGather onto an empty column sized for them.
func (c *Chunk) Gather(sel *bitmap.Bitmap) (ColumnData, error) {
	n := c.count(sel)
	return c.AppendGather(MakeColumn(c.typ, n).Window(0, n), sel)
}

// count returns how many rows sel selects, nil selecting every row.
func (c *Chunk) count(sel *bitmap.Bitmap) int {
	if sel == nil {
		return c.rows
	}
	return sel.Count()
}

// AppendGather appends the values of the rows sel selects (nil selects every
// row) to dst, a column of the chunk's type, and returns it. Handed a
// zero-length window of a larger column (ColumnData.Window), it decodes
// straight into it and touches nothing outside, so the chunks of a result
// column decode into their own windows in parallel. Strings cost one
// allocation per dictionary or per gatherFlush bytes, and never alias the
// chunk. On error dst's appended tail is unspecified.
func (c *Chunk) AppendGather(dst ColumnData, sel *bitmap.Bitmap) (ColumnData, error) {
	if dst.Type != c.typ {
		return dst, fmt.Errorf("lpq: cannot gather a %v chunk into a %v column", c.typ, dst.Type)
	}
	if c.typ == String {
		var err error
		dst.Strings, err = c.kind.(stringKind).appendStrings(c, dst.Strings, sel)
		return dst, err
	}
	var sc Scanner
	if err := c.Scan(&sc, sel); err != nil {
		return dst, err
	}
	for sc.Next() {
		if c.typ == Int64 {
			dst.Ints = append(dst.Ints, sc.Ints()...)
		} else {
			dst.Floats = append(dst.Floats, sc.Floats()...)
		}
	}
	return dst, sc.Err()
}

// Cut is a top-k cut-off as the pages test it: the key of the row that places
// last, Int for an Int64 chunk and Float for a Float64 one. A row may reach it
// when its value sorts at or before it — at or above it when Desc — and a NaN
// always may.
type Cut struct {
	Int   int64
	Float float64
	Desc  bool
}

// Narrows reports whether Reaching can leave rows out: whether the chunk's
// kind has a candidate test.
func (c *Chunk) Narrows() bool {
	_, ok := c.kind.(reachKind)
	return ok
}

// Reaching marks in dst, a bitmap of the chunk's rows, the rows of the page
// holding row from, from that row to the page's end, whose value may reach
// cut, and returns the page's end. The marks are a superset of the rows that
// reach: a page the kind cannot narrow — a delta page, one whose every row may
// reach, a NaN cut-off, any page of a kind without a test — has all of those
// rows marked. dst's other bits are left as they are.
func (c *Chunk) Reaching(dst *bitmap.Bitmap, from int, cut Cut) (int, error) {
	if dst.Len() != c.rows || from < 0 || from >= c.rows {
		return 0, fmt.Errorf("lpq: Reaching from row %d into %d rows, the chunk has %d", from, dst.Len(), c.rows)
	}
	pi := sort.Search(len(c.pages), func(i int) bool { return c.pages[i].first+c.pages[i].rows > from })
	p := &c.pages[pi]
	end := p.first + p.rows
	if k, ok := c.kind.(reachKind); !ok || !k.reaching(c, p, from, cut, dst.Words()) {
		dst.SetRange(from, end)
	}
	return end, nil
}

// markRange ORs into words, for the rows of page p from row from on, a bit
// for each whose code lies in [lo, lo+bound) — or, with outside set, does
// not: p's codes read a group of 64 at a time by inRange.
func (c *Chunk) markRange(p *page, from int, lo, bound uint64, outside bool, words []uint64) {
	pp := packedPage{c.blob[p.off:p.end], p.width}
	var buf [windowBytes]byte
	for g := (from - p.first) &^ 63; g < p.rows; g += 64 {
		n := min(64, p.rows-g)
		acc := pp.inRange(g, n, lo, bound, &buf)
		if outside {
			acc ^= 1<<n - 1
		}
		if skip := from - (p.first + g); skip > 0 {
			acc &^= 1<<skip - 1
		}
		orWord(words, p.first+g, acc)
	}
}

// gatherFlush is how many bytes of strings Gather collects before it turns
// them into one backing allocation: about a data page's worth.
const gatherFlush = 256 << 10

// stringBuf collects gathered strings' bytes in a pooled buffer, which
// becomes one string, for the values to slice, whenever it fills.
type stringBuf struct {
	buf  []byte
	lens []int
	dst  []string
}

// newStringBuf returns a stringBuf appending the rows sel selects to dst.
func newStringBuf(c *Chunk, dst []string, sel *bitmap.Bitmap) stringBuf {
	return stringBuf{bufpool.Get(gatherFlush), make([]int, 0, c.count(sel)), dst}
}

// room makes room for n more bytes, for the caller to append to buf.
func (g *stringBuf) room(n int) {
	if len(g.buf)+n > cap(g.buf) && len(g.buf) > 0 {
		g.flush()
	}
	if n > cap(g.buf) {
		bufpool.Put(g.buf)
		g.buf = bufpool.Get(n)
	}
}

// flush turns the bytes collected into the values.
func (g *stringBuf) flush() {
	backing := string(g.buf)
	for pos, i := 0, 0; i < len(g.lens); i++ {
		g.dst = append(g.dst, backing[pos:pos+g.lens[i]])
		pos += g.lens[i]
	}
	g.buf, g.lens = g.buf[:0], g.lens[:0]
}

// done flushes what is left, gives the buffer back and returns the values.
func (g *stringBuf) done() []string {
	g.flush()
	bufpool.Put(g.buf)
	return g.dst
}
