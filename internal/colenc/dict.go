package colenc

import "math"

// Dictionary encoding: distinct values are collected into a dictionary page
// in first-occurrence order, and each value is replaced by its uint64 code.
// The codes are then bit-packed or run-length encoded by the caller (lpq's
// dictPage), whichever is smaller — mirroring Parquet's dictionary + RLE/bit-packed
// hybrid that gives the paper's column chunks their extreme compression
// ratios (Fig. 6).

// BuildDict maps vals onto dictionary codes. It returns the dictionary in
// first-occurrence order and the per-value codes. Floats go through
// BuildFloatDict.
func BuildDict[T comparable](vals []T) (dict []T, codes []uint64) {
	return buildDict(vals, func(v T) T { return v })
}

// BuildFloatDict is BuildDict for float64 values, which are distinct when
// their bit patterns are: +0 and −0 compare equal and would collapse to
// whichever came first, reading back with the wrong sign, and a NaN equals
// nothing, itself included, so every one would get an entry of its own.
func BuildFloatDict(vals []float64) (dict []float64, codes []uint64) {
	return buildDict(vals, math.Float64bits)
}

// buildDict is BuildDict with values identified by key(v).
func buildDict[T any, K comparable](vals []T, key func(T) K) (dict []T, codes []uint64) {
	index := make(map[K]uint64, 64)
	codes = make([]uint64, len(vals))
	for i, v := range vals {
		k := key(v)
		code, ok := index[k]
		if !ok {
			code = uint64(len(dict))
			index[k] = code
			dict = append(dict, v)
		}
		codes[i] = code
	}
	return dict, codes
}
