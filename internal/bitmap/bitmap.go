// Package bitmap implements the row-selection bitmaps that Fusion's filter
// stage produces on storage nodes and the coordinator consolidates (§4.3,
// §5). Bitmaps are Snappy-compressed for the network, exactly as in the
// paper's implementation.
package bitmap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"github.com/fusionstore/fusion/internal/snappy"
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

// Selectivity returns Count/Len — the fraction of rows selected, the
// quantity the pushdown cost model multiplies with compressibility (§4.3).
func (b *Bitmap) Selectivity() float64 {
	if b.n == 0 {
		return 0
	}
	return float64(b.Count()) / float64(b.n)
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

// Marshal serializes the bitmap with Snappy compression — the filter-reply
// wire form (§5: "It uses Snappy to compress bitmaps before sending them
// back to the coordinator").
func (b *Bitmap) Marshal() []byte {
	raw := make([]byte, 8+8*len(b.words))
	binary.LittleEndian.PutUint64(raw, uint64(b.n))
	for i, w := range b.words {
		binary.LittleEndian.PutUint64(raw[8+8*i:], w)
	}
	return snappy.Encode(raw)
}

// Unmarshal parses the output of Marshal.
func Unmarshal(data []byte) (*Bitmap, error) {
	raw, err := snappy.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("bitmap: %w", err)
	}
	if len(raw) < 8 {
		return nil, errors.New("bitmap: truncated header")
	}
	n := int(binary.LittleEndian.Uint64(raw))
	if n < 0 || (n+63)/64*8 != len(raw)-8 {
		return nil, fmt.Errorf("bitmap: length %d inconsistent with %d payload bytes", n, len(raw)-8)
	}
	b := New(n)
	for i := range b.words {
		b.words[i] = binary.LittleEndian.Uint64(raw[8+8*i:])
	}
	b.clearTail()
	return b, nil
}
