package colenc

import (
	"encoding/binary"
	"fmt"
)

// The decode half of the code-stream encoders, kept for the round-trip tests
// of PackUints, RLEEncode and BuildDict. Nothing outside this package's tests
// decodes a whole page into a slice any more: lpq's opened chunk reads
// bit-packed codes and runs in place (RLERun, lpq.Chunk).

// UnpackUints decodes count values packed at the given bit width
// (1..MaxPackWidth).
func UnpackUints(src []byte, count, width int) ([]uint64, error) {
	if width <= 0 || width > MaxPackWidth {
		return nil, fmt.Errorf("colenc: invalid bit width %d", width)
	}
	need := (count*width + 7) / 8
	if len(src) < need {
		return nil, ErrCorrupt
	}
	out := make([]uint64, count)
	var acc uint64
	var nbits, s int
	mask := uint64(1)<<width - 1
	for i := 0; i < count; i++ {
		for nbits < width {
			acc |= uint64(src[s]) << nbits // nbits < width ≤ 56: no overflow
			s++
			nbits += 8
		}
		out[i] = acc & mask
		acc >>= width
		nbits -= width
	}
	return out, nil
}

// RLEDecode decodes count run-length-encoded values.
func RLEDecode(src []byte, count int) ([]uint64, error) {
	out := make([]uint64, 0, count)
	for len(out) < count {
		run, n := binary.Uvarint(src)
		if n <= 0 || run == 0 {
			return nil, ErrCorrupt
		}
		src = src[n:]
		v, n := binary.Uvarint(src)
		if n <= 0 {
			return nil, ErrCorrupt
		}
		src = src[n:]
		if uint64(count-len(out)) < run {
			return nil, ErrCorrupt
		}
		for i := uint64(0); i < run; i++ {
			out = append(out, v)
		}
	}
	return out, nil
}

// ApplyDict inverts BuildDict: it maps codes back through the dictionary.
func ApplyDict[T any](dict []T, codes []uint64) ([]T, error) {
	out := make([]T, len(codes))
	for i, c := range codes {
		if c >= uint64(len(dict)) {
			return nil, ErrCorrupt
		}
		out[i] = dict[c]
	}
	return out, nil
}
