package lpq

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/big"

	"github.com/fusionstore/fusion/internal/bitmap"
	"github.com/fusionstore/fusion/internal/colenc"
	"github.com/fusionstore/fusion/internal/snappy"
)

// This file is the naive reference the opened-chunk kernels are tested and
// fuzzed against (the gf256 naive-kernel pattern): the page-by-page decoder
// DecodeChunk was before it became OpenChunk + Gather, which materialises
// every row of every page, and value-at-a-time selection over its output. The
// decoder is as it was but for three guards, without which the fuzzer kills
// the process rather than failing a test: a chunk's declared rows are held to
// MaxChunkRows, a page may not declare more rows than the chunk has left, and
// a string dictionary may not declare more entries than it has bytes. Codes
// are unpacked a bit at a time and runs expanded a value at a time
// (referenceDecodeCodes), sharing nothing with the kernels' word-at-a-time reads,
// and FSST code strings are decoded a byte at a time (referenceDecodeFSST)
// under a symbol table read here, sharing nothing with package fsst.

// referenceDecodeChunk decodes a self-contained chunk blob page by page.
func referenceDecodeChunk(t Type, m ChunkMeta, raw []byte) (ColumnData, error) {
	if uint64(len(raw)) != m.Size {
		return ColumnData{}, fmt.Errorf("lpq: chunk is %d bytes, metadata says %d: %w", len(raw), m.Size, ErrFormat)
	}
	if crc32.ChecksumIEEE(raw) != m.CRC {
		return ColumnData{}, fmt.Errorf("lpq: chunk checksum mismatch: %w", ErrFormat)
	}
	if m.NumValues < 0 || m.NumValues > MaxChunkRows {
		return ColumnData{}, ErrFormat
	}
	blob := raw
	if m.Compressed {
		var err error
		blob, err = snappy.Decode(raw)
		if err != nil {
			return ColumnData{}, fmt.Errorf("lpq: chunk decompression: %w", err)
		}
	}
	return referenceDecodeBlob(t, blob, m.NumValues)
}

// referenceDecodeReply decodes a projection reply of n rows: a chunk blob with
// no checksum, never compressed.
func referenceDecodeReply(t Type, body []byte, n int) (ColumnData, error) {
	if n < 0 || n > MaxChunkRows {
		return ColumnData{}, ErrFormat
	}
	return referenceDecodeBlob(t, body, n)
}

// referenceDecodeBlob decodes the n rows of an uncompressed chunk blob.
func referenceDecodeBlob(t Type, blob []byte, n int) (ColumnData, error) {
	if len(blob) < 1 {
		return ColumnData{}, ErrFormat
	}
	enc := colenc.Encoding(blob[0])
	body := blob[1:]
	switch enc {
	case colenc.Plain:
		return referenceDecodePlain(t, body, n)
	case colenc.Dict:
		return referenceDecodeDict(t, body, n)
	case colenc.FOR, colenc.Decimal:
		return referenceDecodeFrames(t, enc, body, n)
	case colenc.FSST:
		return referenceDecodeFSST(t, body, n)
	default:
		return ColumnData{}, fmt.Errorf("lpq: unknown chunk encoding %d: %w", enc, ErrFormat)
	}
}

func referenceDecodePlain(t Type, body []byte, n int) (ColumnData, error) {
	d := &decBuf{b: body}
	numPages := int(d.uvarint())
	if d.err != nil || numPages < 0 || numPages > n+1 {
		return ColumnData{}, ErrFormat
	}
	out := ColumnData{Type: t}
	total := 0
	for p := 0; p < numPages; p++ {
		rows := int(d.uvarint())
		byteLen := int(d.uvarint())
		if d.err != nil || rows <= 0 || rows > n-total || byteLen < 0 || byteLen > len(d.b) {
			return ColumnData{}, ErrFormat
		}
		page := d.b[:byteLen]
		d.b = d.b[byteLen:]
		switch t {
		case Int64:
			vals, err := colenc.GetInt64s(page, rows)
			if err != nil {
				return ColumnData{}, err
			}
			out.Ints = append(out.Ints, vals...)
		case Float64:
			vals, err := colenc.GetFloat64s(page, rows)
			if err != nil {
				return ColumnData{}, err
			}
			out.Floats = append(out.Floats, vals...)
		default:
			vals, err := colenc.GetStrings(page, rows)
			if err != nil {
				return ColumnData{}, err
			}
			out.Strings = append(out.Strings, vals...)
		}
		total += rows
	}
	if total != n {
		return ColumnData{}, fmt.Errorf("lpq: pages hold %d rows, chunk metadata says %d: %w", total, n, ErrFormat)
	}
	return out, nil
}

func referenceDecodeDict(t Type, body []byte, n int) (ColumnData, error) {
	d := &decBuf{b: body}
	dictLen := int(d.uvarint())
	if d.err != nil || dictLen < 0 {
		return ColumnData{}, ErrFormat
	}
	out := ColumnData{Type: t}
	maxCode := uint64(0)
	if dictLen > 0 {
		maxCode = uint64(dictLen - 1)
	}
	switch t {
	case Int64:
		dict, err := colenc.GetInt64s(d.b, dictLen)
		if err != nil {
			return ColumnData{}, err
		}
		d.b = d.b[8*dictLen:]
		codes, err := referenceCodePages(d, n, maxCode)
		if err != nil {
			return ColumnData{}, err
		}
		out.Ints, err = referenceApplyDict(dict, codes)
		return out, err
	case Float64:
		dict, err := colenc.GetFloat64s(d.b, dictLen)
		if err != nil {
			return ColumnData{}, err
		}
		d.b = d.b[8*dictLen:]
		codes, err := referenceCodePages(d, n, maxCode)
		if err != nil {
			return ColumnData{}, err
		}
		out.Floats, err = referenceApplyDict(dict, codes)
		return out, err
	default:
		// Strings are variable-length: the dictionary page is consumed
		// value by value.
		if dictLen > len(d.b) {
			return ColumnData{}, ErrFormat // guard: every entry takes a byte
		}
		dict := make([]string, dictLen)
		for i := 0; i < dictLen; i++ {
			s := d.str()
			if d.err != nil {
				return ColumnData{}, d.err
			}
			dict[i] = s
		}
		codes, err := referenceCodePages(d, n, maxCode)
		if err != nil {
			return ColumnData{}, err
		}
		out.Strings, err = referenceApplyDict(dict, codes)
		return out, err
	}
}

// referenceScales is the decimal chunk's scale table, spelled out again.
var referenceScales = []float64{1, 10, 100, 1000, 10000}

// referenceDecodeFrames decodes a frame-of-reference (Int64) or decimal
// (Float64) chunk page by page: every offset or code unpacked a bit at a time,
// and a decimal code's correction applied by a switch over its two low bits.
func referenceDecodeFrames(t Type, enc colenc.Encoding, body []byte, n int) (ColumnData, error) {
	d := &decBuf{b: body}
	scale := 1.0
	if enc == colenc.Decimal {
		si := int(d.byteVal())
		if t != Float64 || d.err != nil || si >= len(referenceScales) {
			return ColumnData{}, ErrFormat
		}
		scale = referenceScales[si]
	} else if t != Int64 {
		return ColumnData{}, ErrFormat
	}
	numPages := int(d.uvarint())
	if d.err != nil || numPages < 0 || numPages > n+1 {
		return ColumnData{}, ErrFormat
	}
	out := ColumnData{Type: t}
	total := 0
	for p := 0; p < numPages; p++ {
		rows := int(d.uvarint())
		byteLen := int(d.uvarint())
		if d.err != nil || rows <= 0 || rows > n-total || byteLen < 0 || byteLen > len(d.b) {
			return ColumnData{}, ErrFormat
		}
		page := &decBuf{b: d.b[:byteLen]}
		d.b = d.b[byteLen:]
		base := page.i64()
		width := int(page.byteVal())
		if enc == colenc.FOR && width >= 0x80 {
			vals, err := referenceDeltaPage(page, base, width-0x80, rows)
			if err != nil {
				return ColumnData{}, err
			}
			out.Ints = append(out.Ints, vals...)
			total += rows
			continue
		}
		if enc == colenc.FOR {
			if page.err != nil || width < 1 || width > 32 {
				return ColumnData{}, colenc.ErrCorrupt
			}
			if base >= 0 && uint64(base)+(1<<width-1) > math.MaxInt64 {
				return ColumnData{}, colenc.ErrCorrupt // the largest offset would carry base past int64
			}
			offsets, err := referenceDecodeCodes(colenc.Plain, page.b, rows, width)
			if err != nil {
				return ColumnData{}, err
			}
			for _, off := range offsets {
				out.Ints = append(out.Ints, base+int64(off))
			}
			total += rows
			continue
		}
		// A decimal page: its escape count, then a code per row — an offset
		// of width bits, above a two-bit correction where the width byte's
		// top bit says so — then the escapes' values.
		escapes := page.uvarint()
		corr := 0
		if width >= 0x80 {
			width, corr = width-0x80, 2
		}
		if page.err != nil || width < 1 || width+corr > 32 {
			return ColumnData{}, colenc.ErrCorrupt
		}
		if corr == 0 && escapes > 0 || escapes > 1<<width {
			return ColumnData{}, colenc.ErrCorrupt // the offset field cannot index every escape
		}
		if base >= 0 && uint64(base)+(1<<width-1) > math.MaxInt64 {
			return ColumnData{}, colenc.ErrCorrupt
		}
		codes, err := referenceDecodeCodes(colenc.Plain, page.b, rows, width+corr)
		if err != nil {
			return ColumnData{}, err
		}
		raw := page.b[(rows*(width+corr)+7)/8:]
		if uint64(len(raw)) < 8*escapes {
			return ColumnData{}, colenc.ErrCorrupt // the raw list is shorter than its escapes
		}
		for _, code := range codes {
			off, c := code>>corr, code&(1<<corr-1)
			exact := math.Float64bits(float64(base+int64(off)) / scale)
			var v float64
			switch c {
			case 0:
				v = math.Float64frombits(exact)
			case 1:
				v = math.Float64frombits(exact + 1)
			case 2:
				v = math.Float64frombits(exact - 1)
			default:
				if off >= escapes {
					return ColumnData{}, colenc.ErrCorrupt // an escape past the raw list
				}
				v = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*off:]))
			}
			out.Floats = append(out.Floats, v)
		}
		total += rows
	}
	if total != n {
		return ColumnData{}, fmt.Errorf("lpq: pages hold %d rows, chunk metadata says %d: %w", total, n, ErrFormat)
	}
	return out, nil
}

// referenceDeltaPage decodes the rest of a delta page of rows rows whose first
// value is base: the minimum step as a zigzag varint, then rows-1 deltas of
// width bits (0 to 32), each row the previous one plus the step plus its
// delta. The page is rejected when the lowest or the highest value its width
// allows — base plus rows-1 steps, and that plus rows-1 times the widest
// delta — leaves int64, computed in arbitrary precision.
func referenceDeltaPage(page *decBuf, base int64, width, rows int) ([]int64, error) {
	zz := page.uvarint()
	step := int64(zz>>1) ^ -int64(zz&1)
	if page.err != nil || width > 32 {
		return nil, colenc.ErrCorrupt
	}
	n := big.NewInt(int64(rows - 1))
	lo := new(big.Int).Add(big.NewInt(base), new(big.Int).Mul(n, big.NewInt(step)))
	hi := new(big.Int).Add(lo, new(big.Int).Mul(n, big.NewInt(1<<width-1)))
	if !lo.IsInt64() || !hi.IsInt64() {
		return nil, colenc.ErrCorrupt // a running sum could leave int64
	}
	deltas, err := referenceDecodeCodes(colenc.Plain, page.b, rows-1, width)
	if err != nil {
		return nil, err
	}
	vals := []int64{base}
	for _, d := range deltas {
		vals = append(vals, vals[len(vals)-1]+step+int64(d))
	}
	return vals, nil
}

// referenceDecodeFSST decodes an FSST chunk: the symbol table as declared —
// at most 255 symbols of 1 to 8 bytes — then the pages as plain string pages
// of code strings, each decoded a byte at a time: code 255 takes the next
// byte literally, any other code below the table's length is its symbol.
func referenceDecodeFSST(t Type, body []byte, n int) (ColumnData, error) {
	if t != String {
		return ColumnData{}, ErrFormat
	}
	d := &decBuf{b: body}
	count := d.uvarint()
	if d.err != nil || count > 255 {
		return ColumnData{}, colenc.ErrCorrupt
	}
	symbols := make([]string, count)
	for i := range symbols {
		l := int(d.byteVal())
		if d.err != nil || l < 1 || l > 8 || l > len(d.b) {
			return ColumnData{}, colenc.ErrCorrupt
		}
		symbols[i], d.b = string(d.b[:l]), d.b[l:]
	}
	codes, err := referenceDecodePlain(String, d.b, n)
	if err != nil {
		return ColumnData{}, err
	}
	out := ColumnData{Type: String}
	for _, cs := range codes.Strings {
		var v []byte
		for i := 0; i < len(cs); i++ {
			switch code := int(cs[i]); {
			case code == 255 && i+1 < len(cs):
				i++
				v = append(v, cs[i])
			case code < len(symbols):
				v = append(v, symbols[code]...)
			default:
				return ColumnData{}, colenc.ErrCorrupt
			}
		}
		out.Strings = append(out.Strings, string(v))
	}
	return out, nil
}

// referenceCodePages decodes the data pages following a dictionary page.
func referenceCodePages(d *decBuf, n int, maxCode uint64) ([]uint64, error) {
	numPages := int(d.uvarint())
	if d.err != nil || numPages < 0 || numPages > n+1 {
		return nil, ErrFormat
	}
	out := make([]uint64, 0, n)
	for p := 0; p < numPages; p++ {
		rows := int(d.uvarint())
		enc := colenc.Encoding(d.byteVal())
		byteLen := int(d.uvarint())
		if d.err != nil || rows <= 0 || rows > n-len(out) || byteLen < 0 || byteLen > len(d.b) {
			return nil, ErrFormat
		}
		page := d.b[:byteLen]
		d.b = d.b[byteLen:]
		codes, err := referenceDecodeCodes(enc, page, rows, colenc.BitWidth(maxCode))
		if err != nil {
			return nil, err
		}
		out = append(out, codes...)
	}
	if len(out) != n {
		return nil, fmt.Errorf("lpq: code pages hold %d rows, chunk metadata says %d: %w", len(out), n, ErrFormat)
	}
	return out, nil
}

// referenceDecodeCodes decodes one page of rows dictionary codes: bit-packed codes a
// bit at a time, run-length pairs a value at a time.
func referenceDecodeCodes(enc colenc.Encoding, page []byte, rows, width int) ([]uint64, error) {
	out := make([]uint64, 0, rows)
	switch enc {
	case colenc.Plain:
		if rows*width > 8*len(page) {
			return nil, colenc.ErrCorrupt
		}
		for bit := 0; len(out) < rows; bit += width {
			var code uint64
			for b := bit; b < bit+width; b++ {
				code |= uint64(page[b/8]>>(b%8)&1) << (b - bit)
			}
			out = append(out, code)
		}
	case colenc.RLEEnc:
		for len(out) < rows {
			run, n1 := binary.Uvarint(page)
			if n1 <= 0 || run == 0 || run > uint64(rows-len(out)) {
				return nil, colenc.ErrCorrupt
			}
			code, n2 := binary.Uvarint(page[n1:])
			if n2 <= 0 {
				return nil, colenc.ErrCorrupt
			}
			for ; run > 0; run-- {
				out = append(out, code)
			}
			page = page[n1+n2:]
		}
	default:
		return nil, colenc.ErrCorrupt
	}
	return out, nil
}

// referenceApplyDict maps codes through the dictionary.
func referenceApplyDict[T any](dict []T, codes []uint64) ([]T, error) {
	out := make([]T, len(codes))
	for i, c := range codes {
		if c >= uint64(len(dict)) {
			return nil, colenc.ErrCorrupt
		}
		out[i] = dict[c]
	}
	return out, nil
}

// referenceSelect returns the subset of col's values whose bits are set, one
// value at a time.
func referenceSelect(col ColumnData, sel *bitmap.Bitmap) ColumnData {
	out := ColumnData{Type: col.Type}
	sel.ForEach(func(i int) {
		switch col.Type {
		case Int64:
			out.Ints = append(out.Ints, col.Ints[i])
		case Float64:
			out.Floats = append(out.Floats, col.Floats[i])
		default:
			out.Strings = append(out.Strings, col.Strings[i])
		}
	})
	return out
}
