package gf256

import "encoding/binary"

// MatrixKernel multiplies a fixed coefficient matrix into byte ranges of
// shards: out[r] = Σ_j c[r][j]·in[j], every output row in one pass over the
// inputs. It is the one bulk kernel the erasure coder runs — encode, verify
// and reconstruct are each one such product.
//
// Multiplication by a constant c is linear over GF(2), so c·b decomposes per
// nibble — c·b = lo[b&15] ^ hi[b>>4] — into two 16-entry tables, which is
// exactly one shuffle operand. On amd64 with AVX2 the kernel works one
// 32-byte column at a time: it loads each input once, splits its nibbles
// once, and folds them into up to four output rows held in registers (a
// VPSHUFB pair and two XORs per row), so each input byte is read once per
// four rows and each output byte written once. More rows run in groups of
// four.
//
// Elsewhere the same one-pass shape runs as SWAR over 8-byte words: each
// input word is split once into its eight bitplanes ((w>>i) & 0x01…01, one
// 0/1 byte per lane), and each row accumulates Σ_i plane_i·(c·2^i) — a
// lane never carries into its neighbour because every mask byte is 0 or 1
// and the constant fits in 8 bits.
type MatrixKernel struct {
	rows, cols int
	// tables holds the split tables, group by group of up to four rows,
	// input by input, row by row: 64 bytes per coefficient — the 16 low-nibble
	// products twice, then the 16 high-nibble products twice, one 32-byte
	// shuffle operand each.
	tables []byte
	// planes holds the SWAR bitplane constants in the same order, 8 per
	// coefficient: c·2^i for bit i.
	planes []uint64
}

// groupRows is how many output rows one pass accumulates in registers.
const groupRows = 4

// laneMask extracts one bit of each of a word's 8 byte lanes.
const laneMask = 0x0101010101010101

// NewMatrixKernel returns the kernel for the coefficient rows coeffs, which
// must be non-empty and of one non-zero length.
func NewMatrixKernel(coeffs [][]byte) *MatrixKernel {
	rows, cols := len(coeffs), len(coeffs[0])
	m := &MatrixKernel{rows: rows, cols: cols,
		tables: make([]byte, 0, rows*cols*64), planes: make([]uint64, 0, rows*cols*8)}
	for g := 0; g < rows; g += groupRows {
		group := coeffs[g:min(g+groupRows, rows)]
		for j := 0; j < cols; j++ {
			for _, row := range group {
				var lo, hi [16]byte
				for v := range lo {
					lo[v], hi[v] = Mul(row[j], byte(v)), Mul(row[j], byte(v<<4))
				}
				m.tables = append(append(append(append(m.tables, lo[:]...), lo[:]...), hi[:]...), hi[:]...)
				for i := 0; i < 8; i++ {
					m.planes = append(m.planes, uint64(Mul(row[j], 1<<i)))
				}
			}
		}
	}
	return m
}

// Mul sets out[r][at:at+hi-lo] = Σ_j c[r][j]·in[j][lo:hi] for every row r.
// in has one shard per coefficient column and out one per row; no output
// may overlap an input.
func (m *MatrixKernel) Mul(in [][]byte, lo, hi int, out [][]byte, at int) {
	in = in[:m.cols]
	for g := 0; g < m.rows; g += groupRows {
		rows := out[g:min(g+groupRows, m.rows)]
		done := 0
		if n := (hi - lo) &^ 31; useAVX2 && n > 0 {
			tab := m.tables[g*m.cols*64 : (g+len(rows))*m.cols*64]
			mulAVX2(tab, in, rows, lo, at, n)
			done = n
		}
		m.mulSWAR(g, in, lo+done, hi, rows, at+done)
	}
}

// mulSWAR is Mul's portable body for rows g…: one 8-byte word column at a
// time, a short tail word read and written byte by byte.
func (m *MatrixKernel) mulSWAR(g int, in [][]byte, lo, hi int, out [][]byte, at int) {
	planes := m.planes[g*m.cols*8 : (g+len(out))*m.cols*8]
	// out holds at most groupRows rows; indexing acc by r&(groupRows-1)
	// lets the compiler drop the bounds checks.
	var acc [groupRows]uint64
	for i := lo; i < hi; i += 8 {
		n := min(8, hi-i)
		acc = [groupRows]uint64{}
		p := planes
		for _, src := range in {
			w := loadWord(src[i : i+n])
			b0, b1, b2, b3 := w&laneMask, (w>>1)&laneMask, (w>>2)&laneMask, (w>>3)&laneMask
			b4, b5, b6, b7 := (w>>4)&laneMask, (w>>5)&laneMask, (w>>6)&laneMask, (w>>7)&laneMask
			for r := range out {
				q := p[r*8 : r*8+8 : r*8+8]
				acc[r&(groupRows-1)] ^= b0*q[0] ^ b1*q[1] ^ b2*q[2] ^ b3*q[3] ^
					b4*q[4] ^ b5*q[5] ^ b6*q[6] ^ b7*q[7]
			}
			p = p[len(out)*8:]
		}
		o := at + i - lo
		for r, dst := range out {
			storeWord(dst[o:o+n], acc[r&(groupRows-1)])
		}
	}
}

// loadWord reads b (at most 8 bytes) as a little-endian word.
func loadWord(b []byte) uint64 {
	if len(b) == 8 {
		return binary.LittleEndian.Uint64(b)
	}
	var w uint64
	for i, v := range b {
		w |= uint64(v) << (8 * i)
	}
	return w
}

// storeWord writes the low len(b) bytes of w into b, little-endian.
func storeWord(b []byte, w uint64) {
	if len(b) == 8 {
		binary.LittleEndian.PutUint64(b, w)
		return
	}
	for i := range b {
		b[i] = byte(w >> (8 * i))
	}
}
