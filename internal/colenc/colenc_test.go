package colenc

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestPlainInt64RoundTrip(t *testing.T) {
	f := func(vals []int64) bool {
		enc := PutInt64s(nil, vals)
		got, err := GetInt64s(enc, len(vals))
		return err == nil && (len(vals) == 0 || reflect.DeepEqual(got, vals))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPlainFloat64RoundTrip(t *testing.T) {
	vals := []float64{0, 1.5, -2.25, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1)}
	enc := PutFloat64s(nil, vals)
	got, err := GetFloat64s(enc, len(vals))
	if err != nil || !reflect.DeepEqual(got, vals) {
		t.Fatalf("round trip failed: %v %v", got, err)
	}
}

func TestPlainStringRoundTrip(t *testing.T) {
	f := func(vals []string) bool {
		enc := PutStrings(nil, vals)
		got, err := GetStrings(enc, len(vals))
		return err == nil && (len(vals) == 0 || reflect.DeepEqual(got, vals))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPlainTruncated(t *testing.T) {
	if _, err := GetInt64s([]byte{1, 2, 3}, 1); err == nil {
		t.Fatal("GetInt64s must reject short input")
	}
	if _, err := GetFloat64s(nil, 1); err == nil {
		t.Fatal("GetFloat64s must reject short input")
	}
	if _, err := GetStrings([]byte{5, 'a'}, 1); err == nil {
		t.Fatal("GetStrings must reject truncated string")
	}
}

func TestBitWidth(t *testing.T) {
	cases := []struct {
		max  uint64
		want int
	}{{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {255, 8}, {256, 9}, {1<<56 - 1, 56}}
	for _, c := range cases {
		if got := BitWidth(c.max); got != c.want {
			t.Errorf("BitWidth(%d) = %d, want %d", c.max, got, c.want)
		}
	}
}

func TestPackUnpackAllWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for width := 1; width <= MaxPackWidth; width++ {
		n := 100 + rng.Intn(100)
		vals := make([]uint64, n)
		mask := uint64(1)<<width - 1
		for i := range vals {
			vals[i] = rng.Uint64() & mask
		}
		enc := PackUints(nil, vals, width)
		wantLen := (n*width + 7) / 8
		if len(enc) != wantLen {
			t.Fatalf("width %d: packed %d bytes, want %d", width, len(enc), wantLen)
		}
		got, err := UnpackUints(enc, n, width)
		if err != nil || !reflect.DeepEqual(got, vals) {
			t.Fatalf("width %d: round trip failed: %v", width, err)
		}
	}
}

func TestPackInvalidWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PackUints must panic on invalid width")
		}
	}()
	PackUints(nil, []uint64{1}, 0)
}

func TestUnpackErrors(t *testing.T) {
	if _, err := UnpackUints([]byte{1}, 10, 8); err == nil {
		t.Fatal("UnpackUints must reject short input")
	}
	if _, err := UnpackUints(nil, 1, 64); err == nil {
		t.Fatal("UnpackUints must reject width > MaxPackWidth")
	}
}

func TestRLERoundTrip(t *testing.T) {
	cases := [][]uint64{
		{},
		{5},
		{1, 1, 1, 1, 1},
		{1, 2, 3, 4, 5},
		{0, 0, 7, 7, 7, 0, 1 << 40},
	}
	for _, vals := range cases {
		enc := RLEEncode(nil, vals)
		if len(enc) != RLESize(vals) {
			t.Errorf("RLESize mismatch for %v: %d vs %d", vals, RLESize(vals), len(enc))
		}
		got, err := RLEDecode(enc, len(vals))
		if err != nil {
			t.Fatalf("RLEDecode(%v): %v", vals, err)
		}
		if len(vals) > 0 && !reflect.DeepEqual(got, vals) {
			t.Fatalf("RLE round trip failed for %v: got %v", vals, got)
		}
	}
}

func TestRLEProperty(t *testing.T) {
	f := func(vals []uint64) bool {
		enc := RLEEncode(nil, vals)
		got, err := RLEDecode(enc, len(vals))
		if err != nil {
			return false
		}
		return len(vals) == 0 || reflect.DeepEqual(got, vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRLEDecodeCorrupt(t *testing.T) {
	// A run that overruns the expected count.
	enc := RLEEncode(nil, []uint64{9, 9, 9, 9})
	if _, err := RLEDecode(enc, 2); err == nil {
		t.Fatal("RLEDecode must reject runs exceeding count")
	}
	if _, err := RLEDecode([]byte{3}, 3); err == nil {
		t.Fatal("RLEDecode must reject truncated pair")
	}
}

func TestBuildApplyDict(t *testing.T) {
	vals := []string{"bob", "alice", "bob", "carol", "alice", "bob"}
	dict, codes := BuildDict(vals)
	if !reflect.DeepEqual(dict, []string{"bob", "alice", "carol"}) {
		t.Fatalf("dictionary must preserve first-occurrence order, got %v", dict)
	}
	if !reflect.DeepEqual(codes, []uint64{0, 1, 0, 2, 1, 0}) {
		t.Fatalf("codes wrong: %v", codes)
	}
	back, err := ApplyDict(dict, codes)
	if err != nil || !reflect.DeepEqual(back, vals) {
		t.Fatalf("ApplyDict failed: %v %v", back, err)
	}
}

func TestApplyDictOutOfRange(t *testing.T) {
	if _, err := ApplyDict([]int64{1}, []uint64{3}); err == nil {
		t.Fatal("ApplyDict must reject out-of-range code")
	}
}

func TestDictPropertyInt64(t *testing.T) {
	f := func(vals []int64) bool {
		dict, codes := BuildDict(vals)
		back, err := ApplyDict(dict, codes)
		if err != nil {
			return false
		}
		return len(vals) == 0 || reflect.DeepEqual(back, vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCodesEncodingPicksRLEForRuns(t *testing.T) {
	codes := make([]uint64, 10000) // all zero: a single run
	enc, data := CodesEncoding(codes, 0)
	if enc != RLEEnc {
		t.Fatalf("constant stream must pick RLE, got %v", enc)
	}
	got, err := DecodeCodes(enc, data, len(codes), 0)
	if err != nil || !reflect.DeepEqual(got, codes) {
		t.Fatalf("decode failed: %v", err)
	}
}

func TestCodesEncodingPicksPackForEntropy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	codes := make([]uint64, 5000)
	for i := range codes {
		codes[i] = uint64(rng.Intn(1000))
	}
	enc, data := CodesEncoding(codes, 999)
	if enc != Plain {
		t.Fatalf("high-entropy stream must pick bit-packing, got %v", enc)
	}
	got, err := DecodeCodes(enc, data, len(codes), 999)
	if err != nil || !reflect.DeepEqual(got, codes) {
		t.Fatalf("decode failed: %v", err)
	}
}

func TestDecodeCodesBadEncoding(t *testing.T) {
	if _, err := DecodeCodes(Dict, nil, 0, 0); err == nil {
		t.Fatal("DecodeCodes must reject unknown encodings")
	}
}

func TestEncodingString(t *testing.T) {
	if Plain.String() != "PLAIN" || Dict.String() != "DICT" || RLEEnc.String() != "RLE" || FOR.String() != "FOR" || Decimal.String() != "DECIMAL" {
		t.Fatal("Encoding.String wrong")
	}
	if Encoding(99).String() == "" {
		t.Fatal("unknown encoding must still stringify")
	}
}

// TestDecodersBoundCountsBeforeAllocating: every decoder that sizes its
// output by a caller-supplied count — which lpq takes from untrusted page
// headers — rejects a count the bytes cannot back before allocating for it,
// including the counts whose byte size overflows an int.
func TestDecodersBoundCountsBeforeAllocating(t *testing.T) {
	src := make([]byte, 64)
	for _, count := range []int{9, 1 << 40, 1 << 60, 1 << 61, -1} {
		if _, err := GetInt64s(src, count); err == nil {
			t.Errorf("GetInt64s(64 bytes, %d) succeeded", count)
		}
		if _, err := GetFloat64s(src, count); err == nil {
			t.Errorf("GetFloat64s(64 bytes, %d) succeeded", count)
		}
	}
	for _, count := range []int{65, 1 << 40, -1} {
		if _, err := GetStrings(src, count); err == nil {
			t.Errorf("GetStrings(64 bytes, %d) succeeded", count)
		}
		if _, err := StringsSize(src, count); err == nil {
			t.Errorf("StringsSize(64 bytes, %d) succeeded", count)
		}
	}
}

func TestRLERun(t *testing.T) {
	enc := RLEEncode(nil, []uint64{5, 5, 5, 300, 300})
	run, val, n := RLERun(enc)
	if run != 3 || val != 5 || n != 2 {
		t.Fatalf("first run = (%d, %d) in %d bytes", run, val, n)
	}
	run, val, n2 := RLERun(enc[n:])
	if run != 2 || val != 300 || n+n2 != len(enc) {
		t.Fatalf("second run = (%d, %d) in %d bytes", run, val, n2)
	}
	for _, bad := range [][]byte{nil, {3}, {0, 5}, {0x80}, {3, 0x80}} {
		if _, _, n := RLERun(bad); n != 0 {
			t.Errorf("RLERun(%v) reports %d bytes, want 0", bad, n)
		}
	}
}

// TestGetStringsOneBackingAllocation: a page of strings costs two allocations
// (the backing copy and the slice), not one per value, and the values do not
// alias the source bytes.
func TestGetStringsOneBackingAllocation(t *testing.T) {
	vals := make([]string, 1000)
	for i := range vals {
		vals[i] = fmt.Sprintf("string value %d", i)
	}
	vals[7] = ""
	vals[8] = string(bytes.Repeat([]byte("y"), 300)) // a two-byte length prefix
	src := PutStrings(nil, vals)
	size, err := StringsSize(append(src[:len(src):len(src)], "trailing"...), len(vals))
	if err != nil || size != len(src) {
		t.Fatalf("StringsSize = %d, %v; want %d", size, err, len(src))
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := GetStrings(src, len(vals)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("GetStrings of %d values allocated %.0f times, want 2", len(vals), allocs)
	}
	got, err := GetStrings(src, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		src[i] = 0xDB
	}
	if !reflect.DeepEqual(got, vals) {
		t.Fatal("decoded strings alias the source")
	}
}

// TestFrame: the frame of a span is its minimum and the width of the span,
// refused past MaxFrameWidth bits (overflowing spans included), with the base
// lowered just enough at the top of int64 that base plus the widest offset
// still fits; the offsets from it, packed, round-trip through UnpackUints at
// every case.
func TestFrame(t *testing.T) {
	for _, tc := range []struct {
		min, max int64
		base     int64
		width    int
		ok       bool
	}{
		{min: 5, max: 5, base: 5, width: 1, ok: true},
		{min: -3, max: 4, base: -3, width: 3, ok: true},
		{min: 1, max: 200000, base: 1, width: 18, ok: true},
		{min: -5, max: 1<<32 - 6, base: -5, width: 32, ok: true},
		{min: -5, max: 1<<32 - 5, ok: false},
		{min: math.MinInt64, max: math.MaxInt64, ok: false},
		{min: math.MinInt64, max: math.MinInt64 + 299, base: math.MinInt64, width: 9, ok: true},
		{min: math.MaxInt64 - 299, max: math.MaxInt64, base: math.MaxInt64 - 511, width: 9, ok: true},
		{min: math.MaxInt64, max: math.MaxInt64, base: math.MaxInt64 - 1, width: 1, ok: true},
		{min: 7, max: 6, ok: false},
	} {
		base, width, ok := Frame(tc.min, tc.max)
		if ok != tc.ok || (ok && (base != tc.base || width != tc.width)) {
			t.Fatalf("Frame(%d, %d) = %d, %d, %v; want %d, %d, %v", tc.min, tc.max, base, width, ok, tc.base, tc.width, tc.ok)
		}
		if !ok {
			continue
		}
		vals := []int64{tc.min, tc.max, tc.min + (tc.max-tc.min)/2}
		packed := make([]uint64, len(vals))
		for i, v := range vals {
			packed[i] = uint64(v) - uint64(base)
		}
		offs, err := UnpackUints(PackUints(nil, packed, width), len(vals), width)
		if err != nil {
			t.Fatal(err)
		}
		for i, off := range offs {
			if base+int64(off) != vals[i] {
				t.Fatalf("Frame(%d, %d): value %d came back %d", tc.min, tc.max, vals[i], base+int64(off))
			}
		}
	}
}
