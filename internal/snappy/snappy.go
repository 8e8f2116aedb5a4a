// Package snappy implements the Snappy block compression format from
// scratch, wire-compatible with the reference implementation. Fusion uses it
// to compress a column chunk's pages when writing PAX files (§2), where it
// saves at least a fifth. It does not compress filter bitmaps, as the paper's
// implementation does (§5): package bitmap sends each in its smallest exact
// form, which is smaller than Snappy's output for the selective filters
// pushdown serves and costs less CPU to write and read.
//
// The format is a little-endian uvarint with the decompressed length,
// followed by a sequence of literal and copy elements. See
// https://github.com/google/snappy/blob/main/format_description.txt.
package snappy

import (
	"encoding/binary"
	"errors"
)

// Element tags (low two bits of the tag byte).
const (
	tagLiteral = 0x00
	tagCopy1   = 0x01
	tagCopy2   = 0x02
	tagCopy4   = 0x03
)

// Errors returned by Decode.
var (
	ErrCorrupt  = errors.New("snappy: corrupt input")
	ErrTooLarge = errors.New("snappy: decoded block is too large")
)

// maxBlockSize is the largest decompressed block Decode will allocate.
const maxBlockSize = 1 << 30

// MaxEncodedLen returns an upper bound on the size of Encode's output for an
// input of srcLen bytes (the reference implementation's bound).
func MaxEncodedLen(srcLen int) int {
	return 32 + srcLen + srcLen/6
}

// Encode compresses src and returns the compressed block.
func Encode(src []byte) []byte {
	dst := make([]byte, 0, MaxEncodedLen(len(src)))
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(src)))
	dst = append(dst, lenBuf[:n]...)
	if len(src) == 0 {
		return dst
	}
	if len(src) < minMatchInput {
		return emitLiteral(dst, src)
	}
	return encodeBlock(dst, src)
}

// Inputs shorter than this cannot contain a worthwhile match.
const (
	minMatchInput = 16
	minMatchLen   = 4
	hashTableBits = 14
	hashTableSize = 1 << hashTableBits
)

func hash4(u uint32) uint32 {
	return (u * 0x1e35a7bd) >> (32 - hashTableBits)
}

func load32(b []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(b[i:])
}

// encodeBlock is a greedy single-pass matcher in the style of the reference
// implementation: hash 4-byte windows, on a hit emit the pending literal and
// extend the match as far as it goes.
func encodeBlock(dst, src []byte) []byte {
	// table maps the hash of a 4-byte window to one plus the position it was
	// last seen at; zero, the state the runtime clears it to, is "never".
	var table [hashTableSize]uint32
	// s is the scan position, lit the start of the pending literal run.
	s, lit := 0, 0
	limit := len(src) - minMatchLen
	for s <= limit {
		h := hash4(load32(src, s))
		cand := int(table[h]) - 1
		table[h] = uint32(s + 1)
		if cand >= 0 && s-cand <= 1<<16-1 && load32(src, cand) == load32(src, s) {
			// Emit pending literal.
			if lit < s {
				dst = emitLiteral(dst, src[lit:s])
			}
			// Extend the match.
			matchLen := minMatchLen
			for s+matchLen < len(src) && src[cand+matchLen] == src[s+matchLen] {
				matchLen++
			}
			dst = emitCopy(dst, s-cand, matchLen)
			s += matchLen
			lit = s
			// Seed the table at the end of the match so back-to-back matches
			// are found quickly.
			if s <= limit {
				table[hash4(load32(src, s-1))] = uint32(s)
			}
			continue
		}
		s++
	}
	if lit < len(src) {
		dst = emitLiteral(dst, src[lit:])
	}
	return dst
}

// emitLiteral appends a literal element for lit to dst.
func emitLiteral(dst, lit []byte) []byte {
	n := len(lit) - 1
	switch {
	case n < 60:
		dst = append(dst, byte(n)<<2|tagLiteral)
	case n < 1<<8:
		dst = append(dst, 60<<2|tagLiteral, byte(n))
	case n < 1<<16:
		dst = append(dst, 61<<2|tagLiteral, byte(n), byte(n>>8))
	case n < 1<<24:
		dst = append(dst, 62<<2|tagLiteral, byte(n), byte(n>>8), byte(n>>16))
	default:
		dst = append(dst, 63<<2|tagLiteral, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	}
	return append(dst, lit...)
}

// emitCopy appends copy elements covering a match of the given length at the
// given backwards offset (1 ≤ offset ≤ 65535).
func emitCopy(dst []byte, offset, length int) []byte {
	// Long matches are emitted as a run of 64-byte copy-2 elements.
	for length >= 68 {
		dst = append(dst, 63<<2|tagCopy2, byte(offset), byte(offset>>8))
		length -= 64
	}
	if length > 64 {
		// Leave at least 4 for the final element.
		dst = append(dst, 59<<2|tagCopy2, byte(offset), byte(offset>>8))
		length -= 60
	}
	if 4 <= length && length <= 11 && offset < 1<<11 {
		dst = append(dst, byte(offset>>8)<<5|byte(length-4)<<2|tagCopy1, byte(offset))
		return dst
	}
	return append(dst, byte(length-1)<<2|tagCopy2, byte(offset), byte(offset>>8))
}

// maxExpansion bounds decoded bytes per encoded byte: the densest element is
// a 3-byte copy producing 64 bytes (21.3x), so a block declaring more than
// 22x its own size cannot be valid and is rejected before any allocation.
const maxExpansion = 22

// decodedLen parses and validates a block's preamble, returning the declared
// decompressed length and the preamble's size.
func decodedLen(src []byte) (n, hdr int, err error) {
	declared, hdr := binary.Uvarint(src)
	if hdr <= 0 {
		return 0, 0, ErrCorrupt
	}
	if declared > maxBlockSize {
		return 0, 0, ErrTooLarge
	}
	if declared > maxExpansion*uint64(len(src)) {
		return 0, 0, ErrCorrupt
	}
	return int(declared), hdr, nil
}

// DecodedLen returns the declared decompressed length of a block.
func DecodedLen(src []byte) (int, error) {
	n, _, err := decodedLen(src)
	return n, err
}

// Decode decompresses a Snappy block produced by Encode (or any conforming
// encoder) and returns the original bytes.
func Decode(src []byte) ([]byte, error) {
	return DecodeInto(nil, src)
}

// DecodeInto is Decode writing into dst's backing array when its capacity
// covers the block's declared length (dst's contents are overwritten, never
// read), and into a fresh slice otherwise. Callers that decode block after
// block reuse one buffer instead of allocating and zeroing one per block;
// size it with DecodedLen.
func DecodeInto(dst, src []byte) ([]byte, error) {
	n, hdr, err := decodedLen(src)
	if err != nil {
		return nil, err
	}
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]byte, n)
	}
	if !decodeBlock(dst, src[hdr:]) {
		return nil, ErrCorrupt
	}
	return dst, nil
}

// copyTable describes each copy tag byte: bits 0-7 the copy's length, bits
// 8-10 the high bits of a copy-1 offset, bits 11-13 the number of offset bytes
// that follow the tag. trailerMask keeps that many bytes of a 4-byte load; it
// has eight entries so that indexing it with three bits needs no check.
var (
	copyTable   [256]uint16
	trailerMask = [8]uint32{0, 0xff, 0xffff, 0, 0xffffffff}
)

func init() {
	for tag := 0; tag < 256; tag++ {
		switch tag & 0x03 {
		case tagCopy1:
			copyTable[tag] = uint16(4+tag>>2&0x07) | uint16(tag>>5)<<8 | 1<<11
		case tagCopy2:
			copyTable[tag] = uint16(1+tag>>2) | 2<<11
		case tagCopy4:
			copyTable[tag] = uint16(1+tag>>2) | 4<<11
		}
	}
}

// decodeBlock expands the elements of src into dst, which has exactly the
// declared length, and reports whether they were well formed and filled it.
//
// The store keeps Snappy only for string pages such as l_comment's, whose
// blocks are about sixteen copies to every literal: 99% of the copies are at
// most 16 bytes long (7.5 on average), 98% reach back more than 16 bytes, and
// the literals average 1.2 bytes. So the inner loop is a fast zone, entered
// while 5 bytes of src (the longest tag and trailer) are readable and 16
// bytes of dst writable. There a literal of at most 16 bytes, or a copy of at
// most 16 from at least 16 back, is two unconditional 8-byte moves whatever
// its exact length, so no branch depends on that length; a longer copy from
// as far back takes one such pair per 16 bytes. The bytes written beyond an
// element are overwritten by the next one, and dst is discarded when
// decoding fails. A copy reads only bytes before d, which are final, so a
// reused dst's old contents are never read. Any other element, and the tail,
// goes to the general decoder below the zone, which checks every bound.
func decodeBlock(dst, src []byte) bool {
	d, s := 0, 0
	for {
		// The moves take full slice expressions: a slice whose capacity
		// is known to be 16 needs no pointer masking.
		for s+5 <= len(src) && d+16 <= len(dst) {
			tag := src[s]
			if tag&0x03 == tagLiteral {
				n := int(tag>>2) + 1
				if n > 16 || s+17 > len(src) {
					break
				}
				move16(dst[d:d+16:d+16], src[s+1:s+17:s+17])
				d += n
				s += 1 + n
				continue
			}
			// The tag byte fixes a copy's length, the high bits of a copy-1
			// offset and how many offset bytes trail it; reading those from
			// a table keeps the three copy forms off the branch predictor.
			e := copyTable[tag]
			trailer := int(e >> 11)
			length := int(e & 0xff)
			offset := int(e&0x700) | int(binary.LittleEndian.Uint32(src[s+1:s+5:s+5])&trailerMask[trailer&7])
			if offset < 16 || offset > d || length > len(dst)-d-16 {
				break
			}
			move16(dst[d:d+16:d+16], dst[d-offset:d-offset+16:d-offset+16])
			for i := 16; i < length; i += 16 {
				move16(dst[d+i:d+i+16], dst[d+i-offset:d+i-offset+16])
			}
			d += length
			s += 1 + trailer
		}
		if s >= len(src) {
			return d == len(dst)
		}
		// The general decoder: one element, every bound checked.
		tag := src[s]
		s++
		if tag&0x03 == tagLiteral {
			// The length is tag>>2 + 1, or for 60..63 the next 1..4 bytes + 1.
			n := int(tag>>2) + 1
			if k := n - 60; k > 0 {
				if k > len(src)-s {
					return false
				}
				n = int(readLE(src[s:s+k])) + 1
				s += k
			}
			if n > len(src)-s || n > len(dst)-d {
				return false
			}
			copy(dst[d:], src[s:s+n])
			s += n
			d += n
			continue
		}
		e := copyTable[tag]
		k := int(e >> 11)
		if k > len(src)-s {
			return false
		}
		length := int(e & 0xff)
		offset := int(e&0x700) | int(readLE(src[s:s+k]))
		s += k
		// A back-reference: length bytes starting offset bytes behind d,
		// which may overlap the bytes it writes (offset < length repeats
		// the pattern).
		if offset <= 0 || offset > d || length > len(dst)-d {
			return false
		}
		end := d + length
		switch {
		case offset >= 8 && end+8 <= len(dst):
			// Eight bytes at a time is exact for any offset >= 8, overlapping
			// or not: each load reads only bytes already final.
			for ; d < end; d += 8 {
				binary.LittleEndian.PutUint64(dst[d:], binary.LittleEndian.Uint64(dst[d-offset:]))
			}
		case offset >= length:
			copy(dst[d:end], dst[d-offset:])
		default:
			// Overlapping: each pass copies everything written since the
			// back-reference began, doubling the pattern.
			for from := d - offset; d < end; {
				d += copy(dst[d:end], dst[from:d])
			}
		}
		d = end
	}
}

// move16 copies src to dst, both 16 bytes long, as two 8-byte moves.
func move16(dst, src []byte) {
	binary.LittleEndian.PutUint64(dst[:8], binary.LittleEndian.Uint64(src[:8]))
	binary.LittleEndian.PutUint64(dst[8:16], binary.LittleEndian.Uint64(src[8:16]))
}

// readLE returns b, at most four bytes, as a little-endian integer.
func readLE(b []byte) uint32 {
	var v uint32
	for i := len(b) - 1; i >= 0; i-- {
		v = v<<8 | uint32(b[i])
	}
	return v
}
