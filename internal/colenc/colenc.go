// Package colenc implements the physical column encodings used by the lpq
// PAX file format: plain, fixed-width bit-packing, run-length encoding,
// dictionary encoding (§2, Fig. 3 of the paper) and frame-of-reference
// offsets. Each encoding is a self-contained byte-slice codec; the lpq writer
// composes them per column chunk and layers Snappy compression on top where
// it still pays. The FSST kind's codec is package fsst.
package colenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Encoding identifies how the values of a page are encoded.
type Encoding uint8

const (
	// Plain stores values back to back with no transformation.
	Plain Encoding = iota
	// Dict stores a dictionary page of distinct values plus bit-packed codes.
	Dict
	// RLE stores (run-length, value) pairs of unsigned integers.
	RLEEnc
	// FOR stores each Int64 value of a page as its offset from the page's
	// smallest value (the frame of reference), bit-packed — or, where that is
	// smaller, the page's first value and each step to the next row less the
	// smallest step, bit-packed (package lpq's delta pages).
	FOR
	// Decimal stores each Float64 value v of a page as an integer i, v times
	// a power of ten rounded, packed as a frame-of-reference offset beside a
	// two-bit correction: the ulp that takes float64(i)/scale to v's bits
	// (none, one up, one down), or an escape to v's raw bits where none does
	// (NaN, ±Inf, −0, two ulps or more).
	Decimal
	// FSST stores each String value of a page as its code string under the
	// chunk's FSST symbol table (package fsst), length-prefixed as a plain
	// string is.
	FSST
)

func (e Encoding) String() string {
	switch e {
	case Plain:
		return "PLAIN"
	case Dict:
		return "DICT"
	case RLEEnc:
		return "RLE"
	case FOR:
		return "FOR"
	case Decimal:
		return "DECIMAL"
	case FSST:
		return "FSST"
	default:
		return fmt.Sprintf("Encoding(%d)", uint8(e))
	}
}

// ErrCorrupt reports malformed encoded data.
var ErrCorrupt = errors.New("colenc: corrupt encoded data")

//
// Plain codecs
//

// PutInt64s appends the little-endian plain encoding of vals to dst.
func PutInt64s(dst []byte, vals []int64) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}

// GetInt64s decodes count plain int64 values.
func GetInt64s(src []byte, count int) ([]int64, error) {
	if count < 0 || count > len(src)/8 {
		return nil, ErrCorrupt
	}
	dst := make([]int64, count)
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return dst, nil
}

// PutFloat64s appends the plain encoding of vals to dst.
func PutFloat64s(dst []byte, vals []float64) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// GetFloat64s decodes count plain float64 values.
func GetFloat64s(src []byte, count int) ([]float64, error) {
	if count < 0 || count > len(src)/8 {
		return nil, ErrCorrupt
	}
	dst := make([]float64, count)
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return dst, nil
}

// PutStrings appends the plain encoding of vals (uvarint length + bytes each)
// to dst.
func PutStrings(dst []byte, vals []string) []byte {
	for _, v := range vals {
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		dst = append(dst, v...)
	}
	return dst
}

// StringsSize returns the number of bytes the first count plain string values
// of src occupy, or ErrCorrupt when src does not hold that many whole values.
func StringsSize(src []byte, count int) (int, error) {
	// Every value takes at least its length byte, which bounds count before
	// a caller allocates anything for it.
	if count < 0 || count > len(src) {
		return 0, ErrCorrupt
	}
	end := 0
	for i := 0; i < count; i++ {
		l, n := binary.Uvarint(src[end:])
		if n <= 0 || uint64(len(src)-end-n) < l {
			return 0, ErrCorrupt
		}
		end += n + int(l)
	}
	return end, nil
}

// GetStrings decodes count plain string values. The values share one backing
// allocation — a copy of the encoded bytes they span, sliced per value — so a
// page costs two allocations however many strings it holds, and nothing
// returned aliases src.
func GetStrings(src []byte, count int) ([]string, error) {
	end, err := StringsSize(src, count)
	if err != nil {
		return nil, err
	}
	backing := string(src[:end])
	dst := make([]string, 0, count)
	for pos := 0; pos < end; {
		l, n := binary.Uvarint(src[pos:])
		dst = append(dst, backing[pos+n:pos+n+int(l)])
		pos += n + int(l)
	}
	return dst, nil
}

//
// Bit-packing
//

// BitWidth returns the number of bits needed to represent max (at least 1,
// so that zero-width pages never arise).
func BitWidth(max uint64) int {
	if max == 0 {
		return 1
	}
	return bits.Len64(max)
}

// MaxPackWidth is the widest supported bit width. Bit-packing is only used
// for dictionary codes and frame-of-reference offsets (MaxFrameWidth), whose
// width never approaches this; the bound keeps the accumulator arithmetic
// overflow-free.
const MaxPackWidth = 56

// MaxFrameWidth is the widest offset a frame-of-reference page packs: readers
// hold a page's offsets, like dictionary codes, in 32 bits.
const MaxFrameWidth = 32

// Frame returns the frame of reference for a page whose values span
// [min, max] — the base offsets are taken from and the bit width that packs
// the largest — and whether a page can hold them: false when the span needs
// more than MaxFrameWidth bits (a span that overflows int64 included). The
// base is min, lowered where it must be so that base plus the widest offset
// of that width still fits int64, which readers require of a page.
func Frame(min, max int64) (base int64, width int, ok bool) {
	span := uint64(max) - uint64(min) // exact for max >= min, even across zero
	if max < min || span >= 1<<MaxFrameWidth {
		return 0, 0, false
	}
	width = BitWidth(span)
	if top := int64(1)<<width - 1; min > math.MaxInt64-top {
		min = math.MaxInt64 - top
	}
	return min, width, true
}

// PackUints appends vals packed at the given bit width (1..MaxPackWidth) to
// dst. Values must fit in width bits.
func PackUints(dst []byte, vals []uint64, width int) []byte {
	if width <= 0 || width > MaxPackWidth {
		panic(fmt.Sprintf("colenc: invalid bit width %d", width))
	}
	// The bits collect in acc and leave it a whole word at a time; a value
	// that straddles two words leaves its high bits for the next.
	var acc uint64
	var nbits int
	for _, v := range vals {
		acc |= v << nbits
		if nbits += width; nbits >= 64 {
			dst = binary.LittleEndian.AppendUint64(dst, acc)
			nbits -= 64
			acc = v >> (width - nbits)
		}
	}
	for ; nbits > 0; nbits -= 8 {
		dst = append(dst, byte(acc))
		acc >>= 8
	}
	return dst
}

//
// Run-length encoding
//

// RLEEncode appends the run-length encoding of vals to dst: a sequence of
// (uvarint run length, uvarint value) pairs.
func RLEEncode(dst []byte, vals []uint64) []byte {
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		dst = binary.AppendUvarint(dst, uint64(j-i))
		dst = binary.AppendUvarint(dst, vals[i])
		i = j
	}
	return dst
}

// RLERun parses the (run length, value) pair at the head of src and returns
// it with the bytes it took; n is 0 when the pair is malformed, truncated or
// has a zero run.
func RLERun(src []byte) (run, val uint64, n int) {
	run, n1 := binary.Uvarint(src)
	if n1 <= 0 || run == 0 {
		return 0, 0, 0
	}
	val, n2 := binary.Uvarint(src[n1:])
	if n2 <= 0 {
		return 0, 0, 0
	}
	return run, val, n1 + n2
}

// RLESize returns the encoded size of vals under RLEEncode without
// materializing the encoding.
func RLESize(vals []uint64) int {
	size := 0
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		size += UvarintLen(uint64(j-i)) + UvarintLen(vals[i])
		i = j
	}
	return size
}

// UvarintLen returns the number of bytes binary.AppendUvarint takes for v.
func UvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
