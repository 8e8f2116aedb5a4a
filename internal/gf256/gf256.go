// Package gf256 implements arithmetic over the Galois field GF(2^8) with the
// polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the field used by most
// storage-system Reed–Solomon implementations. The scalar operations and the
// byte-wise slice helpers serve matrix algebra and test oracles; the erasure
// coder's hot path is the fused MatrixKernel.
package gf256

// Irreducible polynomial used to generate the field, without the x^8 term.
const polynomial = 0x1d

// exp and log tables. exp is doubled so Mul can skip a modular reduction.
var (
	expTable [512]byte
	logTable [256]byte
)

func init() {
	x := byte(1)
	for i := 0; i < 255; i++ {
		expTable[i] = x
		expTable[i+255] = x
		logTable[x] = byte(i)
		// Multiply x by the generator 2 in GF(2^8).
		carry := x&0x80 != 0
		x <<= 1
		if carry {
			x ^= polynomial
		}
	}
	expTable[510] = expTable[0]
	expTable[511] = expTable[1]
}

// Add returns a + b. Addition in GF(2^8) is XOR.
func Add(a, b byte) byte { return a ^ b }

// Mul returns the product a * b.
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// Inv returns the multiplicative inverse of a. It panics if a is zero.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return expTable[255-int(logTable[a])]
}

// MulSlice sets dst[i] = c * src[i] for all i. dst and src must have the same
// length. It is matrix inversion's row-scaling primitive.
func MulSlice(c byte, src, dst []byte) {
	if c == 0 {
		clear(dst)
		return
	}
	if c == 1 {
		copy(dst, src)
		return
	}
	logC := int(logTable[c])
	for i, s := range src {
		if s == 0 {
			dst[i] = 0
		} else {
			dst[i] = expTable[logC+int(logTable[s])]
		}
	}
}

// MulAddSlice sets dst[i] ^= c * src[i] for all i, accumulating a scaled row
// into dst. dst and src must have the same length.
func MulAddSlice(c byte, src, dst []byte) {
	if c == 0 {
		return
	}
	if c == 1 {
		for i, s := range src {
			dst[i] ^= s
		}
		return
	}
	logC := int(logTable[c])
	for i, s := range src {
		if s != 0 {
			dst[i] ^= expTable[logC+int(logTable[s])]
		}
	}
}
