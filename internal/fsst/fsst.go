// Package fsst implements FSST (Fast Static Symbol Table) string compression
// (Boncz, Neumann, Leis, PVLDB 13(11), 2020): a table of at most 255
// symbols, each 1 to 8 bytes, replaces every symbol occurrence in a string
// with its one-byte code, and code Escape is followed by one literal byte the
// table does not cover. Each string is compressed on its own, so any one can
// be decoded without the others — the random access a column kernel needs.
//
// A table is built from a sample of the strings it will compress, in a few
// generations: the sample is compressed with the table so far, the symbols
// and the concatenations of adjacent symbol pairs that cover most of it are
// counted, and the 255 of greatest gain (occurrences × length) make the next
// table. Building is deterministic: the same strings give the same table.
package fsst

import (
	"cmp"
	"encoding/binary"
	"errors"
	"math/bits"
	"slices"
	"sync"
)

const (
	// MaxSymbols is the most symbols a table holds: codes 0 to 254.
	MaxSymbols = 255
	// MaxSymbolLen is the longest symbol, in bytes.
	MaxSymbolLen = 8
	// Escape is the code that takes the next byte literally.
	Escape = 255
)

// ErrCorrupt reports a malformed table or code string.
var ErrCorrupt = errors.New("fsst: corrupt encoded data")

// Table is a symbol table. The zero Table has no symbols: it encodes every
// byte as an escape.
type Table struct {
	n    int
	syms [256]uint64 // code's symbol, little-endian, zero above its length
	lens [256]uint8  // code's symbol length; 0 for codes past the table and Escape

	// index is what Encode matches with; only Build makes one, so a table
	// from ParseTable, which decoders use, encodes every byte as an escape.
	index *matchIndex
}

// matchIndex holds the codes of the symbols of two bytes or more, grouped by
// a hash of their first two bytes (prefixHash), longest first within a group,
// and where each group starts; and the code of each one-byte symbol, Escape
// for a byte that has none.
type matchIndex struct {
	order  [MaxSymbols]uint8
	start  [prefixSlots + 1]uint16
	single [256]uint8
}

// prefixSlots is the number of groups prefixHash sorts symbols into.
const prefixSlots = 1 << 10

// prefixHash hashes the first two bytes of w into [0, prefixSlots).
func prefixHash(w uint64) int { return int(uint32(w&0xffff) * 0x9E3779B1 >> 22) }

// Len returns the number of symbols.
func (t *Table) Len() int { return t.n }

// Symbol returns the bytes of symbol code.
func (t *Table) Symbol(code int) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], t.syms[code])
	return b[:t.lens[code]]
}

// symbol is a symbol's bytes as a little-endian word, zero above its
// length, and its length.
type symbol struct {
	w uint64
	n int
}

// symbolOf returns s, 1 to MaxSymbolLen bytes, as a symbol.
func symbolOf(s []byte) symbol {
	var b [8]byte
	copy(b[:], s)
	return symbol{binary.LittleEndian.Uint64(b[:]), len(s)}
}

// newTable returns the table of the given symbols, each 1 to MaxSymbolLen
// bytes, at most MaxSymbols of them, with its match index.
func newTable(symbols []symbol) *Table {
	t := &Table{n: len(symbols), index: &matchIndex{}}
	x := t.index
	for i := range x.single {
		x.single[i] = Escape
	}
	for code, s := range symbols {
		t.syms[code], t.lens[code] = s.w, uint8(s.n)
		switch {
		case s.n > 1:
			x.start[prefixHash(s.w)+1]++
		case x.single[byte(s.w)] == Escape:
			x.single[byte(s.w)] = uint8(code)
		}
	}
	for h := range prefixSlots {
		x.start[h+1] += x.start[h]
	}
	at := x.start
	for l := MaxSymbolLen; l > 1; l-- {
		for code, s := range symbols {
			if s.n == l {
				h := prefixHash(s.w)
				x.order[at[h]] = uint8(code)
				at[h]++
			}
		}
	}
	return t
}

// AppendTable appends the table's serialized form to dst: the uvarint symbol
// count, then per symbol its length byte and its bytes.
func (t *Table) AppendTable(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(t.n))
	for code := 0; code < t.n; code++ {
		dst = append(append(dst, t.lens[code]), t.Symbol(code)...)
	}
	return dst
}

// ParseTable reads a table serialized by AppendTable from the head of src and
// returns it with the bytes it took. A table of more than MaxSymbols symbols,
// or a symbol of 0 or more than MaxSymbolLen bytes, is ErrCorrupt. The table
// decodes; it has no match index to encode with.
func ParseTable(src []byte) (*Table, int, error) {
	n, at := binary.Uvarint(src)
	if at <= 0 || n > MaxSymbols {
		return nil, 0, ErrCorrupt
	}
	t := &Table{n: int(n)}
	for code := range t.n {
		if at >= len(src) {
			return nil, 0, ErrCorrupt
		}
		l := int(src[at])
		if l < 1 || l > MaxSymbolLen || l > len(src)-at-1 {
			return nil, 0, ErrCorrupt
		}
		s := symbolOf(src[at+1 : at+1+l])
		t.syms[code], t.lens[code] = s.w, uint8(l)
		at += 1 + l
	}
	return t, at, nil
}

// match returns the code of the longest symbol s starts with, and its length;
// code Escape and length 1 when no symbol starts s or t has no match index.
// s is not empty.
func (t *Table) match(s string) (code uint8, n int) {
	x := t.index
	if x == nil {
		return Escape, 1
	}
	if len(s) > 1 {
		var b [8]byte
		copy(b[:], s)
		word := binary.LittleEndian.Uint64(b[:])
		h := prefixHash(word)
		for _, c := range x.order[x.start[h]:x.start[h+1]] {
			l := int(t.lens[c])
			if l <= len(s) && word&lenMask[l] == t.syms[c] {
				return c, l
			}
		}
	}
	return x.single[s[0]], 1
}

// lenMask[l] keeps the low l bytes of a word.
var lenMask = [9]uint64{0, 0xff, 0xffff, 0xffffff, 0xffffffff, 0xffffffffff, 0xffffffffffff, 0xffffffffffffff, ^uint64(0)}

// Encode appends the code string of s to dst: the greedy longest-symbol
// parse, each byte no symbol covers escaped. Only a table from Build matches
// symbols; any other escapes every byte.
func (t *Table) Encode(dst []byte, s string) []byte {
	for len(s) > 0 {
		code, n := t.match(s)
		if code == Escape {
			dst = append(dst, Escape, s[0])
		} else {
			dst = append(dst, code)
		}
		s = s[n:]
	}
	return dst
}

// MaxDecodedLen is the most bytes a code string of n bytes decodes to, plus
// the slack of one 8-byte store past the last symbol that the decoders need.
func MaxDecodedLen(n int) int { return MaxSymbolLen*n + MaxSymbolLen }

// decodeInto decodes codes into dst from at on and returns the offset past
// the decoded bytes; ok is false for a code past the table or an escape as
// the last byte. dst must hold MaxDecodedLen(len(codes)) bytes from at on:
// every symbol is stored as a whole 8-byte word and the offset advanced by its
// length, so the bytes past the returned offset are undefined.
func (t *Table) decodeInto(dst []byte, at int, codes []byte) (int, bool) {
	for i := 0; i < len(codes); i++ {
		c := codes[i]
		if c == Escape {
			if i++; i == len(codes) {
				return at, false
			}
			dst[at] = codes[i]
			at++
			continue
		}
		l := t.lens[c]
		if l == 0 {
			return at, false
		}
		binary.LittleEndian.PutUint64(dst[at:at+8], t.syms[c])
		at += int(l)
	}
	return at, true
}

// DecodeSpans decodes the code strings src[from[k]:to[k]] onto dst, back to
// back, in one pass, and rewrites each span to where its string now lies in
// dst. It returns the extended dst, or ErrCorrupt — with dst's tail and the
// spans unspecified — for a code past the table or an escape as a string's
// last byte. dst must stay below 4 GiB.
func (t *Table) DecodeSpans(dst, src []byte, from, to []uint32) ([]byte, error) {
	need := 0
	for k := range from {
		need += MaxDecodedLen(int(to[k] - from[k]))
	}
	at := len(dst)
	dst = slices.Grow(dst, need)[:at+need]
	for k := range from {
		end, ok := t.decodeInto(dst, at, src[from[k]:to[k]])
		if !ok {
			return dst[:at], ErrCorrupt
		}
		from[k], to[k], at = uint32(at), uint32(end), end
	}
	return dst[:at], nil
}

// Build returns a table for compressing vals, built from a sample of them:
// every stride-th value, the stride chosen for about sampleBytes in all.
func Build(vals []string) *Table {
	total := 0
	for _, v := range vals {
		total += len(v)
	}
	stride := max(1, total/sampleBytes)
	sample := make([]string, 0, len(vals)/stride+1)
	for i := 0; i < len(vals); i += stride {
		if vals[i] != "" {
			sample = append(sample, vals[i])
		}
	}
	t := &Table{}
	pairs := pairPool.Get().(*pairCounts)
	defer pairPool.Put(pairs)
	for frac := firstFrac; frac <= 128; frac += fracStep {
		t = t.next(sample, pairs, frac)
	}
	return t
}

const (
	// sampleBytes is about how much of a column the table is built from.
	sampleBytes = 16 << 10
	// The table is rebuilt five times, over a growing share of the sample:
	// frac of every 128 sampled values, 8 at first and the whole sample last.
	// The early tables only seed the later ones, so they can be rough and
	// cheap — FSST's own schedule.
	firstFrac, fracStep = 8, 30
)

// pseudo is the counting code of a byte no symbol covers: bytes count as
// codes pseudo to pseudo+255, after every symbol's.
const (
	pseudo    = 256
	numCounts = pseudo + 256
)

// pairCounts counts adjacent (code, code) pairs of a parse in a flat table,
// remembering which entries it touched so that reading and clearing them
// costs what the parse did, not the table's size.
type pairCounts struct {
	n       []int32
	touched []int32
}

// pairPool recycles pair tables (1 MiB each) across builds; next leaves
// every table it used cleared.
var pairPool = sync.Pool{New: func() any { return &pairCounts{n: make([]int32, numCounts*numCounts)} }}

func (p *pairCounts) add(a, b int) {
	i := int32(a*numCounts + b)
	if p.n[i] == 0 {
		p.touched = append(p.touched, i)
	}
	p.n[i]++
}

func (p *pairCounts) reset() {
	for _, i := range p.touched {
		p.n[i] = 0
	}
	p.touched = p.touched[:0]
}

// next compresses frac of every 128 values of the sample with t, counts the
// symbols the parse uses and the symbol pairs it puts side by side, and
// returns the table of the MaxSymbols candidates of greatest gain among those
// counted at least 5·frac/128 times. Over the whole sample (the last round)
// no pair is merged into a new symbol, so the counts the choice rests on are
// the final table's.
func (t *Table) next(sample []string, pairs *pairCounts, frac int) *Table {
	var count1 [numCounts]int
	defer pairs.reset()
	for i, s := range sample {
		if i%128 >= frac {
			continue
		}
		prev := -1
		for len(s) > 0 {
			c, n := t.match(s)
			code := int(c)
			if c == Escape {
				code = pseudo + int(s[0])
			}
			count1[code]++
			if n > 1 {
				// The first byte alone is the alternative to the symbol.
				count1[pseudo+int(s[0])]++
			}
			if prev >= 0 {
				pairs.add(prev, code)
			}
			prev, s = code, s[n:]
		}
	}
	symbolAt := func(code int) symbol {
		if code >= pseudo {
			return symbol{uint64(code - pseudo), 1}
		}
		return symbol{t.syms[code], int(t.lens[code])}
	}
	minCount := max(1, 5*frac/128)
	gain := make(map[symbol]int, 2*MaxSymbols)
	for code, n := range count1 {
		if n < minCount {
			continue
		}
		s := symbolAt(code)
		if s.n == 1 {
			n *= 8 // single bytes keep the escape rate down
		}
		gain[s] += n * s.n
	}
	if frac < 128 {
		for _, i := range pairs.touched {
			n := int(pairs.n[i])
			a := symbolAt(int(i) / numCounts)
			if n < minCount || a.n == MaxSymbolLen {
				continue
			}
			b := symbolAt(int(i) % numCounts)
			s := symbol{n: min(a.n+b.n, MaxSymbolLen)}
			s.w = (a.w | b.w<<(8*a.n)) & lenMask[s.n]
			gain[s] += n * s.n
		}
	}
	type candidate struct {
		symbol
		gain int
	}
	cands := make([]candidate, 0, len(gain))
	for s, g := range gain {
		cands = append(cands, candidate{s, g})
	}
	// Greatest gain first, ties by the symbols' bytes: deterministic.
	slices.SortFunc(cands, func(a, b candidate) int {
		if a.gain != b.gain {
			return b.gain - a.gain
		}
		if c := cmp.Compare(bits.ReverseBytes64(a.w), bits.ReverseBytes64(b.w)); c != 0 {
			return c
		}
		return a.n - b.n
	})
	symbols := make([]symbol, min(len(cands), MaxSymbols))
	for i := range symbols {
		symbols[i] = cands[i].symbol
	}
	return newTable(symbols)
}
