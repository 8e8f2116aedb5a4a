package snappy

import "encoding/binary"

// referenceDecode is the byte-at-a-time decoder Decode used before it grew
// wide-copy fast paths, kept as the naive implementation the production
// decoder is fuzzed and property-tested against (the gf256 naive-kernel
// pattern). It shares only the preamble check with Decode.
func referenceDecode(src []byte) ([]byte, error) {
	n, hdr, err := decodedLen(src)
	if err != nil {
		return nil, err
	}
	dst := make([]byte, n)
	d, s := 0, hdr
	for s < len(src) {
		tag := src[s]
		var length, offset int
		switch tag & 0x03 {
		case tagLiteral:
			// The length is tag>>2 + 1, or for 60..63 the next 1..4 bytes + 1.
			n := int(tag>>2) + 1
			s++
			if extra := n - 60; extra > 0 {
				if s+extra > len(src) {
					return nil, ErrCorrupt
				}
				var buf [8]byte
				copy(buf[:], src[s:s+extra])
				n = int(binary.LittleEndian.Uint32(buf[:])) + 1
				s += extra
			}
			if n <= 0 || s+n > len(src) || d+n > len(dst) {
				return nil, ErrCorrupt
			}
			for i := 0; i < n; i++ {
				dst[d+i] = src[s+i]
			}
			s += n
			d += n
			continue
		case tagCopy1:
			if s+1 >= len(src) {
				return nil, ErrCorrupt
			}
			length = 4 + int(tag>>2)&0x07
			offset = int(tag&0xe0)<<3 | int(src[s+1])
			s += 2
		case tagCopy2:
			if s+2 >= len(src) {
				return nil, ErrCorrupt
			}
			length = 1 + int(tag>>2)
			offset = int(binary.LittleEndian.Uint16(src[s+1:]))
			s += 3
		default: // tagCopy4
			if s+4 >= len(src) {
				return nil, ErrCorrupt
			}
			length = 1 + int(tag>>2)
			offset = int(binary.LittleEndian.Uint32(src[s+1:]))
			s += 5
		}
		if offset <= 0 || offset > d || d+length > len(dst) {
			return nil, ErrCorrupt
		}
		for i := 0; i < length; i++ {
			dst[d+i] = dst[d-offset+i]
		}
		d += length
	}
	if d != len(dst) {
		return nil, ErrCorrupt
	}
	return dst, nil
}
