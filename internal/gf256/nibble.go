package gf256

import "encoding/binary"

// Kernel is a bulk multiply-accumulate engine for one fixed coefficient —
// the seam the erasure coder selects its inner loop through. Two
// implementations exist: the naive log/exp arithmetic (MulSlice/MulAddSlice,
// kept as the property-test reference) and the production nibble
// split-table SWAR kernel (NibbleTable).
type Kernel interface {
	// Coefficient returns the coefficient the kernel was built for.
	Coefficient() byte
	// Mul sets dst[i] = c·src[i], overwriting dst.
	Mul(src, dst []byte)
	// MulAdd sets dst[i] ^= c·src[i], accumulating into dst.
	MulAdd(src, dst []byte)
}

// NewKernel returns the fastest kernel for coefficient c.
func NewKernel(c byte) Kernel { return NewNibbleTable(c) }

// NibbleTable is the split-table kernel for one coefficient c — the shuffle
// erasure-coding technique. Multiplication by c is linear over GF(2), so
// c·b decomposes per nibble — c·b = lo[b&15] ^ hi[b>>4] — needing two
// 16-entry tables instead of one 256-entry table. Sixteen entries is
// exactly one vector register: on amd64 the bulk loop runs both lookups as
// PSHUFB shuffles, multiplying 16 bytes per instruction pair, which is what
// puts this kernel well ahead of the product table on bulk encodes (the
// 256-entry table is a per-byte load the CPU cannot vectorize).
//
// Elsewhere the bulk loop decomposes per *bit* instead: c·b = XOR over set
// bits i of b of c·2^i, which vectorizes over 8 bytes at a time in a uint64
// (SWAR). For each bit position i, ((w>>i) & 0x0101…01) extracts that bit
// of every lane as a 0/1 byte, and multiplying the mask by the byte
// constant c·2^i broadcasts the constant into exactly the lanes whose bit
// was set — lanes never carry into each other because every mask byte is 0
// or 1 and the constant fits in 8 bits. Eight shift/mask/multiply/XOR
// rounds replace twenty-four per-byte loads and stores.
type NibbleTable struct {
	c      byte
	lo, hi [16]byte  // lo[v] = c·v, hi[v] = c·(v<<4): the scalar-tail tables
	planes [8]uint64 // planes[i] = c·2^i: the SWAR bitplane constants
}

// NewNibbleTable returns the split-table kernel for coefficient c.
func NewNibbleTable(c byte) *NibbleTable {
	t := &NibbleTable{c: c}
	for v := 0; v < 16; v++ {
		t.lo[v] = Mul(c, byte(v))
		t.hi[v] = Mul(c, byte(v<<4))
	}
	for i := 0; i < 8; i++ {
		t.planes[i] = uint64(Mul(c, 1<<i))
	}
	return t
}

// Coefficient returns the coefficient the kernel was built for.
func (t *NibbleTable) Coefficient() byte { return t.c }

// laneMask extracts one bit of each of a word's 8 byte lanes.
const laneMask = 0x0101010101010101

// mulWord multiplies all 8 byte lanes of w by the kernel's coefficient.
func (t *NibbleTable) mulWord(w uint64) uint64 {
	p := &t.planes
	acc := (w & laneMask) * p[0]
	acc ^= ((w >> 1) & laneMask) * p[1]
	acc ^= ((w >> 2) & laneMask) * p[2]
	acc ^= ((w >> 3) & laneMask) * p[3]
	acc ^= ((w >> 4) & laneMask) * p[4]
	acc ^= ((w >> 5) & laneMask) * p[5]
	acc ^= ((w >> 6) & laneMask) * p[6]
	acc ^= ((w >> 7) & laneMask) * p[7]
	return acc
}

// MulAdd sets dst[i] ^= c·src[i] for all i of src; dst must be at least as
// long. Coefficient 1 degenerates to a word-at-a-time XOR and coefficient 0
// to a no-op. Other coefficients run the split tables 16 bytes per step via
// PSHUFB where the CPU has it (the shuffle is a 16-way parallel lookup into
// the 16-entry tables) and otherwise fall back to the portable SWAR bitplane
// loop.
func (t *NibbleTable) MulAdd(src, dst []byte) {
	switch t.c {
	case 0:
		return
	case 1:
		XorSlice(src, dst)
		return
	}
	i := 0
	if useSSSE3 && len(src) >= 16 {
		i = len(src) &^ 15
		gfMulAddSSSE3(&t.lo, &t.hi, &src[0], &dst[0], i)
	}
	t.mulAddSWAR(src, dst, i)
}

// mulAddSWAR is the portable bulk path from byte offset start: the SWAR
// bitplane kernel, two independent words per iteration to hide the multiply
// latency, with the split tables covering the sub-word tail.
func (t *NibbleTable) mulAddSWAR(src, dst []byte, start int) {
	n := len(src)
	i := start
	for ; i+16 <= n; i += 16 {
		s := src[i : i+16 : i+16]
		d := dst[i : i+16 : i+16]
		a := t.mulWord(binary.LittleEndian.Uint64(s[0:]))
		b := t.mulWord(binary.LittleEndian.Uint64(s[8:]))
		binary.LittleEndian.PutUint64(d[0:], binary.LittleEndian.Uint64(d[0:])^a)
		binary.LittleEndian.PutUint64(d[8:], binary.LittleEndian.Uint64(d[8:])^b)
	}
	for ; i+8 <= n; i += 8 {
		a := t.mulWord(binary.LittleEndian.Uint64(src[i:]))
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^a)
	}
	for ; i < n; i++ {
		s := src[i]
		dst[i] ^= t.lo[s&0x0f] ^ t.hi[s>>4]
	}
}

// Mul sets dst[i] = c·src[i] for all i of src, overwriting dst. Using Mul
// for the first accumulated row saves the clear pass (and dst read-back)
// that a MulAdd into a zeroed buffer would pay.
func (t *NibbleTable) Mul(src, dst []byte) {
	switch t.c {
	case 0:
		clear(dst[:len(src)])
		return
	case 1:
		copy(dst, src)
		return
	}
	i := 0
	if useSSSE3 && len(src) >= 16 {
		i = len(src) &^ 15
		gfMulSSSE3(&t.lo, &t.hi, &src[0], &dst[0], i)
	}
	t.mulSWAR(src, dst, i)
}

// mulSWAR is Mul's portable bulk path from byte offset start.
func (t *NibbleTable) mulSWAR(src, dst []byte, start int) {
	n := len(src)
	i := start
	for ; i+16 <= n; i += 16 {
		s := src[i : i+16 : i+16]
		d := dst[i : i+16 : i+16]
		a := t.mulWord(binary.LittleEndian.Uint64(s[0:]))
		b := t.mulWord(binary.LittleEndian.Uint64(s[8:]))
		binary.LittleEndian.PutUint64(d[0:], a)
		binary.LittleEndian.PutUint64(d[8:], b)
	}
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], t.mulWord(binary.LittleEndian.Uint64(src[i:])))
	}
	for ; i < n; i++ {
		s := src[i]
		dst[i] = t.lo[s&0x0f] ^ t.hi[s>>4]
	}
}

// XorSlice sets dst[i] ^= src[i] for all i of src, 32 bytes per step via
// unaligned uint64 loads — the coefficient-1 fast path (GF(2^8) addition).
func XorSlice(src, dst []byte) {
	n := len(src)
	i := 0
	for ; i+32 <= n; i += 32 {
		s := src[i : i+32 : i+32]
		d := dst[i : i+32 : i+32]
		binary.LittleEndian.PutUint64(d[0:], binary.LittleEndian.Uint64(s[0:])^binary.LittleEndian.Uint64(d[0:]))
		binary.LittleEndian.PutUint64(d[8:], binary.LittleEndian.Uint64(s[8:])^binary.LittleEndian.Uint64(d[8:]))
		binary.LittleEndian.PutUint64(d[16:], binary.LittleEndian.Uint64(s[16:])^binary.LittleEndian.Uint64(d[16:]))
		binary.LittleEndian.PutUint64(d[24:], binary.LittleEndian.Uint64(s[24:])^binary.LittleEndian.Uint64(d[24:]))
	}
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(src[i:])^binary.LittleEndian.Uint64(dst[i:]))
	}
	for ; i < n; i++ {
		dst[i] ^= src[i]
	}
}
