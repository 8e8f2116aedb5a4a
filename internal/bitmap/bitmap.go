// Package bitmap implements the row-selection bitmaps that Fusion's filter
// stage produces on storage nodes and the coordinator consolidates (§4.3,
// §5). On the network a bitmap travels in the smallest of three exact forms —
// raw words, run lengths or position gaps, the container kinds of Roaring
// bitmaps — where the paper's implementation Snappy-compresses the raw words.
package bitmap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Bitmap is a fixed-length bit set over row indexes [0, Len).
type Bitmap struct {
	n     int
	words []uint64
}

// New returns an all-zero bitmap of n bits.
func New(n int) *Bitmap {
	if n < 0 {
		panic(fmt.Sprintf("bitmap: negative length %d", n))
	}
	return &Bitmap{n: n, words: make([]uint64, (n+63)/64)}
}

// NewFull returns an all-one bitmap of n bits.
func NewFull(n int) *Bitmap {
	b := New(n)
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.clearTail()
	return b
}

func (b *Bitmap) clearTail() {
	if rem := b.n % 64; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (uint64(1) << rem) - 1
	}
}

// Len returns the bitmap's bit length.
func (b *Bitmap) Len() int { return b.n }

// Words exposes the backing words, bit i at words[i/64]>>(i%64), for kernels
// that produce or consume 64 rows at a time. Writers must leave the bits at
// and beyond Len zero.
func (b *Bitmap) Words() []uint64 { return b.words }

// SetRange sets bits [lo, hi).
func (b *Bitmap) SetRange(lo, hi int) {
	if lo >= hi {
		return
	}
	first, last := lo/64, (hi-1)/64
	loMask := ^uint64(0) << (lo % 64)
	hiMask := ^uint64(0) >> (63 - (hi-1)%64)
	if first == last {
		b.words[first] |= loMask & hiMask
		return
	}
	b.words[first] |= loMask
	for i := first + 1; i < last; i++ {
		b.words[i] = ^uint64(0)
	}
	b.words[last] |= hiMask
}

// Set sets bit i.
func (b *Bitmap) Set(i int) {
	b.words[i/64] |= 1 << (i % 64)
}

// Get reports bit i.
func (b *Bitmap) Get(i int) bool {
	return b.words[i/64]&(1<<(i%64)) != 0
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Full reports whether every bit is set, stopping at the first clear one.
func (b *Bitmap) Full() bool {
	last := len(b.words) - 1
	for _, w := range b.words[:max(last, 0)] {
		if w != ^uint64(0) {
			return false
		}
	}
	return last < 0 || b.words[last] == ^uint64(0)>>((64-b.n%64)%64)
}

// Selectivity returns Count/Len — the fraction of rows selected, the
// quantity the pushdown cost model multiplies with compressibility (§4.3).
func (b *Bitmap) Selectivity() float64 {
	if b.n == 0 {
		return 0
	}
	return float64(b.Count()) / float64(b.n)
}

// MaxGap returns the most rows from one set bit to the next — 1 where two are
// adjacent — or 0 with fewer than two set. Gaps across words are measured by
// their ends; inside a word only while no gap of 64 has been seen, each the
// longest run of clear bits between its lowest and highest set bit, found by
// shortening every run a bit at a time.
func (b *Bitmap) MaxGap() int {
	most, last := 0, -1 // last: the highest set bit so far
	for wi, w := range b.words {
		if w == 0 {
			continue
		}
		lo, hi := bits.TrailingZeros64(w), 63-bits.LeadingZeros64(w)
		if last >= 0 {
			most = max(most, wi*64+lo-last)
		}
		last = wi*64 + hi
		if most < 64 && lo < hi {
			run := 0
			for clear := ^w & (1<<hi - 1) &^ (1<<lo - 1); clear != 0; clear &= clear >> 1 {
				run++
			}
			most = max(most, run+1)
		}
	}
	return most
}

// ErrLengthMismatch reports an operation over bitmaps of different lengths.
var ErrLengthMismatch = errors.New("bitmap: length mismatch")

// And intersects other into b in place.
func (b *Bitmap) And(other *Bitmap) error {
	if b.n != other.n {
		return fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, b.n, other.n)
	}
	for i := range b.words {
		b.words[i] &= other.words[i]
	}
	return nil
}

// Or unions other into b in place.
func (b *Bitmap) Or(other *Bitmap) error {
	if b.n != other.n {
		return fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, b.n, other.n)
	}
	for i := range b.words {
		b.words[i] |= other.words[i]
	}
	return nil
}

// Not complements b in place.
func (b *Bitmap) Not() {
	for i := range b.words {
		b.words[i] = ^b.words[i]
	}
	b.clearTail()
}

// Clone returns a deep copy.
func (b *Bitmap) Clone() *Bitmap {
	c := &Bitmap{n: b.n, words: make([]uint64, len(b.words))}
	copy(c.words, b.words)
	return c
}

// Indexes returns the positions of all set bits in ascending order.
func (b *Bitmap) Indexes() []int {
	out := make([]int, 0, b.Count())
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			out = append(out, wi*64+bit)
			w &= w - 1
		}
	}
	return out
}

// ForEach calls fn for every set bit in ascending order.
func (b *Bitmap) ForEach(fn func(i int)) {
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			fn(wi*64 + bit)
			w &= w - 1
		}
	}
}

// The wire forms of a bitmap. Every form starts with its form byte and the
// bit length as a uvarint; the payload that follows is
//
//   - formWords: the words, 8 little-endian bytes each;
//   - formGaps: for each set bit in ascending order, the number of clear bits
//     since the previous one (or since bit 0), as uvarints;
//   - formRuns: the lengths of the alternating runs of clear and set bits, a
//     clear run first (empty when bit 0 is set), as uvarints summing to the
//     length.
const (
	formWords byte = iota
	formGaps
	formRuns
)

// Marshal serializes the bitmap in whichever wire form is smallest, ties
// going to the earlier form: the filter reply's and a pushed selection's
// bytes (§5, where the paper Snappy-compresses the words instead). The
// choice depends on the bits alone.
func (b *Bitmap) Marshal() []byte {
	form, size := formWords, 8*len(b.words)
	// Measure first, then write the winner into one buffer of its exact size.
	// A form is measured only if its lower bound — a byte a set bit, a byte a
	// run — is below the best so far, and its walk stops once it no longer is.
	if b.Count() < size {
		if _, s := b.gaps(nil, size); s >= 0 {
			form, size = formGaps, s
		}
	}
	if b.numRuns() < size {
		if _, s := b.runs(nil, size); s >= 0 {
			form, size = formRuns, s
		}
	}
	out := make([]byte, 1, 1+binary.MaxVarintLen64+size)
	out[0] = form
	out = binary.AppendUvarint(out, uint64(b.n))
	switch form {
	case formGaps:
		out, _ = b.gaps(out, math.MaxInt)
	case formRuns:
		out, _ = b.runs(out, math.MaxInt)
	default:
		for _, w := range b.words {
			out = binary.LittleEndian.AppendUint64(out, w)
		}
	}
	return out
}

// gaps walks the formGaps payload, appending it to dst unless dst is nil, and
// returns its size, or -1 as soon as that reaches limit.
func (b *Bitmap) gaps(dst []byte, limit int) ([]byte, int) {
	size := 0
	next := 0 // the first bit the next gap counts from
	for wi, w := range b.words {
		for ; w != 0; w &= w - 1 {
			pos := wi*64 + bits.TrailingZeros64(w)
			if dst, size = emit(dst, size, uint64(pos-next)); size >= limit {
				return dst, -1
			}
			next = pos + 1
		}
	}
	if size >= limit {
		return dst, -1
	}
	return dst, size
}

// runs walks the formRuns payload, appending it to dst unless dst is nil, and
// returns its size, or -1 as soon as that reaches limit.
func (b *Bitmap) runs(dst []byte, limit int) ([]byte, int) {
	size := 0
	cur := uint64(0) // the bit value of the run in progress, in every position
	start := 0       // where it began
	for wi, w := range b.words {
		// d marks the bits of this word, from the run's start on, that end it.
		for d := w ^ cur; d != 0; {
			bit := bits.TrailingZeros64(d)
			pos := wi*64 + bit
			if pos >= b.n {
				break // a set run reaching the end meets the zero tail
			}
			if dst, size = emit(dst, size, uint64(pos-start)); size >= limit {
				return dst, -1
			}
			cur, start = ^cur, pos
			d = (w ^ cur) &^ (2<<bit - 1)
		}
	}
	if dst, size = emit(dst, size, uint64(b.n-start)); size >= limit {
		return dst, -1
	}
	return dst, size
}

// numRuns counts the varints of the formRuns payload: the bit changes inside
// the bitmap, bit 0 being set counting as one, plus the final run.
func (b *Bitmap) numRuns() int {
	n, prev := 1, uint64(0) // prev: the bit before the word's first
	for _, w := range b.words {
		n += bits.OnesCount64(w ^ (w<<1 | prev))
		prev = w >> 63
	}
	if b.n%64 != 0 && b.Get(b.n-1) {
		n-- // the change to the zero tail, which is past the end
	}
	return n
}

// emit adds v's uvarint to a walk: its length to size, its bytes to dst
// unless dst is nil.
func emit(dst []byte, size int, v uint64) ([]byte, int) {
	if dst != nil {
		dst = binary.AppendUvarint(dst, v)
	}
	return dst, size + (bits.Len64(v|1)+6)/7
}

// Unmarshal parses the output of Marshal for a caller that expects a bitmap of
// rows bits. Anything else — another declared length, runs not summing to it,
// a set bit at or past it, a truncated or unknown payload — is an error, and
// nothing is allocated before the declared length has matched rows; so the
// bitmap it returns is never larger than the caller asked for, whatever the
// input.
func Unmarshal(data []byte, rows int) (*Bitmap, error) {
	if len(data) == 0 {
		return nil, errors.New("bitmap: empty input")
	}
	n, k := binary.Uvarint(data[1:])
	if k <= 0 {
		return nil, errors.New("bitmap: truncated length")
	}
	if rows < 0 || n != uint64(rows) {
		return nil, fmt.Errorf("bitmap: declares %d rows, want %d", n, rows)
	}
	form, payload := data[0], data[1+k:]
	switch form {
	case formWords:
		if len(payload) != 8*((rows+63)/64) {
			return nil, fmt.Errorf("bitmap: %d bytes of words for %d rows", len(payload), rows)
		}
		if rem := rows % 64; rem != 0 && binary.LittleEndian.Uint64(payload[len(payload)-8:])>>rem != 0 {
			return nil, fmt.Errorf("bitmap: a bit at or past row %d is set", rows)
		}
		b := New(rows)
		for i := range b.words {
			b.words[i] = binary.LittleEndian.Uint64(payload[8*i:])
		}
		return b, nil
	case formGaps, formRuns:
		b := New(rows)
		if err := setRanges(form, payload, rows, b); err != nil {
			return nil, err
		}
		return b, nil
	}
	return nil, fmt.Errorf("bitmap: unknown form %d", form)
}

// setRanges walks a formGaps or formRuns payload over rows bits, setting the
// bits it names in b, and reports the first way the payload is malformed.
func setRanges(form byte, p []byte, rows int, b *Bitmap) error {
	at := 0      // bits accounted for
	set := false // formRuns: whether the next run is of set bits
	for first := true; len(p) > 0; first = false {
		v, k := uint64(p[0]), 1 // a gap or run below 128, the common case
		if v >= 0x80 {
			if v, k = binary.Uvarint(p); k <= 0 {
				return errors.New("bitmap: truncated varint")
			}
		}
		p = p[k:]
		if form == formGaps {
			if v >= uint64(rows-at) {
				return fmt.Errorf("bitmap: a set bit at or past row %d", rows)
			}
			at += int(v)
			b.Set(at)
			at++
			continue
		}
		if v > uint64(rows-at) {
			return fmt.Errorf("bitmap: runs exceed %d rows", rows)
		}
		if v == 0 && !first {
			return errors.New("bitmap: empty run")
		}
		if set {
			b.SetRange(at, at+int(v))
		}
		at, set = at+int(v), !set
	}
	if form == formRuns && at != rows {
		return fmt.Errorf("bitmap: runs sum to %d, want %d", at, rows)
	}
	return nil
}
