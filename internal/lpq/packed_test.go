package lpq

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/fusionstore/fusion/internal/bitmap"
	"github.com/fusionstore/fusion/internal/colenc"
)

// widthLayouts are the page lengths the width matrix runs under: pages whose
// first rows fall at 0, 1, 8 and 32 (mod 64), and a short last page, so that
// pages end where a group's last load would run past them.
var widthLayouts = []struct{ pageRows, rows int }{
	{64, 3*64 + 37}, {65, 3*65 + 37}, {72, 3*72 + 37}, {20000, 20000 + 130},
}

// TestPackedKernelsEveryWidth checks the packed-page reader at every width a
// page can have — frame-of-reference offsets of 1 to 32 bits, deltas of 0 to
// 32, dictionary codes of 1 to 16 — under every layout of widthLayouts: SelectInts over ranges that
// cut, cover and miss pages, with outside on and off; SelectCodes over several
// verdicts; and the Scanner, reading every row, a dense stretch from an
// unaligned row and every third row. Each row is held to the bit-at-a-time
// reference decoder. A code beyond the dictionary, in a group read in place
// and in the last group of the chunk, is errCode from SelectCodes and from
// decoding.
func TestPackedKernelsEveryWidth(t *testing.T) {
	for width := 1; width <= colenc.MaxFrameWidth; width++ {
		for _, lay := range widthLayouts {
			t.Run(fmt.Sprintf("frame/width=%d/pageRows=%d", width, lay.pageRows), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(width*100000 + lay.pageRows)))
				col := frameColumn(rng, width, lay.rows, lay.pageRows)
				m, raw := encodeChunk(col, WriterOptions{DictMaxFraction: 1e-9, PageRows: lay.pageRows})
				c := checkPackedChunk(t, rng, m, raw, width)
				if c.enc != colenc.FOR {
					t.Fatalf("writer chose %v, not a frame of reference", c.enc)
				}
				checkSelectInts(t, rng, c, col.Ints)
			})
		}
	}
	for width := 0; width <= colenc.MaxFrameWidth; width++ {
		for _, lay := range widthLayouts {
			t.Run(fmt.Sprintf("delta/width=%d/pageRows=%d", width, lay.pageRows), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(width*100000 + lay.pageRows + 3)))
				col := deltaColumn(rng, width, lay.rows, lay.pageRows)
				m, raw := encodeChunk(col, WriterOptions{DictMaxFraction: 1e-9, PageRows: lay.pageRows})
				c := checkPackedChunk(t, rng, m, raw, width)
				if delta, pages := c.DeltaPages(); c.enc != colenc.FOR || delta != pages {
					t.Fatalf("writer chose %v with %d of %d pages deltas, not delta pages", c.enc, delta, pages)
				}
				checkSelectInts(t, rng, c, col.Ints)
			})
		}
	}
	for width := 1; width <= maxLUTWidth; width++ {
		dictLen := 1<<(width-1) + 1
		if width == 1 {
			dictLen = 2
		}
		for _, lay := range widthLayouts {
			t.Run(fmt.Sprintf("dict/width=%d/pageRows=%d", width, lay.pageRows), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(width*100000 + lay.pageRows + 7)))
				codes := make([]uint64, lay.rows)
				for i := range codes {
					codes[i] = uint64(rng.Intn(dictLen))
				}
				m, raw := packedDictChunk(codes, dictLen, width, lay.pageRows)
				c := checkPackedChunk(t, rng, m, raw, width)
				checkSelectCodes(t, rng, c, codes)
			})
		}
		t.Run(fmt.Sprintf("dict/width=%d/code-beyond", width), func(t *testing.T) {
			// The widest code of the width that the dictionary lacks: a
			// dictionary of 2^(width-1)+1 entries (one, at width 1) lacks
			// code 2^(width-1)+1.
			short := dictLen
			if width == 1 {
				short = 1
			}
			lay := widthLayouts[len(widthLayouts)-1]
			rng := rand.New(rand.NewSource(int64(width)))
			for _, at := range []struct {
				name string
				row  int
			}{{"in place", 1000}, {"last group", lay.rows - 1}} {
				codes := make([]uint64, lay.rows)
				for i := range codes {
					codes[i] = uint64(rng.Intn(short))
				}
				codes[at.row] = uint64(short)
				m, raw := packedDictChunk(codes, short, width, lay.pageRows)
				if _, err := referenceDecodeChunk(Int64, m, raw); err == nil {
					t.Fatalf("%s: the reference decoder accepts a code beyond the dictionary", at.name)
				}
				c, err := OpenChunk(Int64, m, raw)
				if err != nil {
					t.Fatal(err)
				}
				if c.width != width {
					t.Fatalf("%s: width %d, want %d", at.name, c.width, width)
				}
				if _, err := c.SelectCodes(bitmap.NewFull(short)); err != errCode {
					t.Fatalf("%s: SelectCodes returned %v, want errCode", at.name, err)
				}
				if _, err := DecodeChunk(Int64, m, raw); !errors.Is(err, errCode) {
					t.Fatalf("%s: DecodeChunk returned %v, want errCode", at.name, err)
				}
			}
		})
	}
}

// frameColumn draws rows values whose every page of pageRows spans exactly
// width bits: page k's values lie in [base, base+2^width) with its first two
// rows at the ends, and the bases, 3·2^width apart, alternate in sign, so a
// range drawn from one page cuts it and covers or misses the others.
func frameColumn(rng *rand.Rand, width, rows, pageRows int) ColumnData {
	top := int64(1)<<width - 1
	vals := make([]int64, rows)
	for i := range vals {
		k := int64(i / pageRows)
		base := 3 * (top + 1) * k
		if k%2 == 1 {
			base = -base
		}
		off := rng.Int63n(top + 1)
		switch i % pageRows {
		case 0:
			off = 0
		case 1:
			off = top
		}
		vals[i] = base + off
	}
	return IntColumn(vals)
}

// deltaColumn draws rows values whose every page of pageRows steps by a
// minimum plus a delta of exactly width bits: the first step is the minimum,
// the second the minimum plus 2^width-1 (at width 0 every step is the
// minimum), and the minimums alternate in sign from page to page, so pages
// climb and fall and a range drawn from one cuts it.
func deltaColumn(rng *rand.Rand, width, rows, pageRows int) ColumnData {
	top := int64(1)<<width - 1
	vals := make([]int64, rows)
	v := int64(-1) << 40
	for i := range vals {
		k := i / pageRows
		step := int64(2*k+1) << width
		if k%2 == 1 {
			step = -step - top
		}
		switch i % pageRows {
		case 0:
		case 1:
			v += step
		case 2:
			v += step + top
		default:
			v += step + rng.Int63n(top+1)
		}
		vals[i] = v
	}
	return IntColumn(vals)
}

// packedDictChunk assembles an uncompressed Int64 dictionary chunk of dictLen
// entries whose code pages, pageRows rows each, are all bit-packed at width
// with the codes as given — whether or not the dictionary holds them.
func packedDictChunk(codes []uint64, dictLen, width, pageRows int) (ChunkMeta, []byte) {
	dict := make([]int64, dictLen)
	for i := range dict {
		dict[i] = int64(i)*7 - 100
	}
	w := new(blobWriter).bytes(byte(colenc.Dict)).uvarint(uint64(dictLen)).ints(dict...)
	w.uvarint(uint64((len(codes) + pageRows - 1) / pageRows))
	for start := 0; start < len(codes); start += pageRows {
		page := colenc.PackUints(nil, codes[start:min(start+pageRows, len(codes))], width)
		w.uvarint(uint64(min(pageRows, len(codes)-start))).bytes(byte(colenc.Plain)).uvarint(uint64(len(page))).bytes(page...)
	}
	return metaFor(w.b, len(codes)), w.b
}

// checkPackedChunk opens an Int64 chunk whose every page is bit-packed at
// width and holds what the Scanner reads of it to the reference decoder.
func checkPackedChunk(t *testing.T, rng *rand.Rand, m ChunkMeta, raw []byte, width int) *Chunk {
	t.Helper()
	want, err := referenceDecodeChunk(Int64, m, raw)
	if err != nil {
		t.Fatalf("reference decoder: %v", err)
	}
	c, err := OpenChunk(Int64, m, raw)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range c.pages {
		if p.rle || p.width != width {
			t.Fatalf("page %+v: not bit-packed at width %d", p, width)
		}
	}
	if got, err := c.Gather(nil); err != nil || !sameColumn(got, want) {
		t.Fatalf("Gather of every row differs from the reference (%v)", err)
	}
	// A dense stretch that starts and ends off any byte boundary, and a
	// sparse selection.
	stretch, thirds := bitmap.New(c.rows), bitmap.New(c.rows)
	stretch.SetRange(3, c.rows-5)
	for r := rng.Intn(3); r < c.rows; r += 3 {
		thirds.Set(r)
	}
	for name, sel := range map[string]*bitmap.Bitmap{"stretch": stretch, "thirds": thirds} {
		if got, err := c.Gather(sel); err != nil || !sameColumn(got, referenceSelect(want, sel)) {
			t.Fatalf("Gather of the %s selection differs from the reference (%v)", name, err)
		}
	}
	return c
}

// checkSelectInts runs SelectInts over ranges whose bounds are each page's
// edges, one inside or outside them, values of the column and the extremes of
// int64.
func checkSelectInts(t *testing.T, rng *rand.Rand, c *Chunk, vals []int64) {
	t.Helper()
	bound := func() int64 {
		p := c.pages[rng.Intn(len(c.pages))]
		bottom, top := p.base, p.base+(1<<p.width-1)
		if p.delta {
			bottom, top, _ = deltaBounds(p.base, p.step, p.rows, p.width)
		}
		return [...]int64{bottom - 1, bottom, bottom + 1, top - 1, top, top + 1,
			vals[rng.Intn(len(vals))], math.MinInt64, math.MaxInt64}[rng.Intn(9)]
	}
	for trial := 0; trial < 40; trial++ {
		lo, hi, outside := bound(), bound(), trial%2 == 0
		got, err := c.SelectInts(lo, hi, outside)
		if err != nil {
			t.Fatal(err)
		}
		for r, v := range vals {
			if got.Get(r) != ((lo <= v && v <= hi) != outside) {
				t.Fatalf("SelectInts(%d, %d, outside=%v): row %d (value %d) is %v", lo, hi, outside, r, v, got.Get(r))
			}
		}
	}
}

// checkSelectCodes runs SelectCodes under verdicts on none, all, about half
// and about a tenth of the dictionary's entries.
func checkSelectCodes(t *testing.T, rng *rand.Rand, c *Chunk, codes []uint64) {
	t.Helper()
	dict, _ := c.Dict()
	for _, percent := range []int{0, 100, 50, 10} {
		verdict := bitmap.New(dict.Len())
		for i := 0; i < dict.Len(); i++ {
			if rng.Intn(100) < percent {
				verdict.Set(i)
			}
		}
		got, err := c.SelectCodes(verdict)
		if err != nil {
			t.Fatal(err)
		}
		for r, code := range codes {
			if got.Get(r) != verdict.Get(int(code)) {
				t.Fatalf("verdict on %d%% of entries: row %d (code %d) is %v", percent, r, code, got.Get(r))
			}
		}
	}
}
