package fac

import "fmt"

// ChunkExtent is a column chunk's byte range within the object, in file
// order. It is the input to the layouts that operate on raw object bytes
// (fixed-block and padding) rather than on a bag of sizes.
type ChunkExtent struct {
	Offset uint64
	Size   uint64
}

// FixedBlockLayout describes the conventional layout: the object is striped
// into fixed-sized blocks with no knowledge of chunk boundaries (§3.1).
type FixedBlockLayout struct {
	// BlockSize is the configured erasure-code block size.
	BlockSize uint64
	// K is the number of data blocks per stripe.
	K int
	// ObjectSize is the object's total byte length.
	ObjectSize uint64
	// NumBlocks is ceil(ObjectSize / BlockSize).
	NumBlocks int
	// NumStripes is ceil(NumBlocks / K).
	NumStripes int
}

// NewFixedBlockLayout computes the conventional layout of an object.
func NewFixedBlockLayout(objectSize, blockSize uint64, k int) FixedBlockLayout {
	if blockSize == 0 || k < 1 {
		panic(fmt.Sprintf("fac: invalid fixed-block parameters size=%d k=%d", blockSize, k))
	}
	nb := int((objectSize + blockSize - 1) / blockSize)
	if nb == 0 {
		nb = 1
	}
	return FixedBlockLayout{
		BlockSize:  blockSize,
		K:          k,
		ObjectSize: objectSize,
		NumBlocks:  nb,
		NumStripes: (nb + k - 1) / k,
	}
}

// BlockRange returns the indexes of the first and last block a byte range
// touches.
func (l FixedBlockLayout) BlockRange(offset, size uint64) (first, last int) {
	if size == 0 {
		b := int(offset / l.BlockSize)
		return b, b
	}
	return int(offset / l.BlockSize), int((offset + size - 1) / l.BlockSize)
}

// BlocksSpanned returns how many blocks the byte range touches. Because each
// block of a stripe lives on a distinct storage node, this is also the node
// span of the chunk (Fig. 12).
func (l FixedBlockLayout) BlocksSpanned(offset, size uint64) int {
	first, last := l.BlockRange(offset, size)
	return last - first + 1
}

// IsSplit reports whether the byte range crosses a block boundary.
func (l FixedBlockLayout) IsSplit(offset, size uint64) bool {
	return l.BlocksSpanned(offset, size) > 1
}

// SplitFraction returns the fraction of chunks that are split across blocks
// (Fig. 4a).
func (l FixedBlockLayout) SplitFraction(chunks []ChunkExtent) float64 {
	if len(chunks) == 0 {
		return 0
	}
	split := 0
	for _, c := range chunks {
		if l.IsSplit(c.Offset, c.Size) {
			split++
		}
	}
	return float64(split) / float64(len(chunks))
}

// PaddingPlacement is the Adams et al. approach (§3.2): walk the chunks in
// file order and, whenever placing a chunk in the current block would split
// it, fill the block's remainder with padding and start the chunk at the
// next block boundary. Chunks larger than a block still span blocks
// (unavoidable) but always start block-aligned.
type PaddingPlacement struct {
	BlockSize uint64
	K         int
	// PaddedSize is the object size after inserting alignment padding,
	// rounded up to a whole number of blocks.
	PaddedSize uint64
	// PaddingBytes is the total padding inserted (including the tail).
	PaddingBytes uint64
	// DataBytes is the original chunk bytes.
	DataBytes uint64
	// SplitChunks counts chunks that still span multiple blocks (those
	// larger than a block).
	SplitChunks int
}

// NewPaddingPlacement lays chunks out with alignment padding.
func NewPaddingPlacement(sizes []uint64, blockSize uint64, k int) PaddingPlacement {
	if blockSize == 0 || k < 1 {
		panic(fmt.Sprintf("fac: invalid padding parameters size=%d k=%d", blockSize, k))
	}
	p := PaddingPlacement{BlockSize: blockSize, K: k}
	var pos uint64
	for _, sz := range sizes {
		p.DataBytes += sz
		used := pos % blockSize
		if used != 0 && used+sz > blockSize {
			// Pad to the next block boundary and place the chunk there.
			pad := blockSize - used
			p.PaddingBytes += pad
			pos += pad
		}
		if sz > blockSize {
			p.SplitChunks++
		}
		pos += sz
	}
	// Round the tail up to a whole block.
	if rem := pos % blockSize; rem != 0 {
		pad := blockSize - rem
		p.PaddingBytes += pad
		pos += pad
	}
	if pos == 0 {
		pos = blockSize
		p.PaddingBytes = blockSize
	}
	p.PaddedSize = pos
	return p
}

// StoredBytes returns the bytes persisted under an (n, k) code: the padded
// object plus proportional parity (blocks are uniform, so parity is
// (n−k)/k of the padded size).
func (p PaddingPlacement) StoredBytes(n int) uint64 {
	numBlocks := p.PaddedSize / p.BlockSize
	stripes := (numBlocks + uint64(p.K) - 1) / uint64(p.K)
	return p.PaddedSize + stripes*uint64(n-p.K)*p.BlockSize
}

// OverheadVsOptimal returns the additional storage overhead relative to the
// optimal layout (data × n/k), as a fraction — the Fig. 4d / Fig. 16b
// quantity.
func (p PaddingPlacement) OverheadVsOptimal(n int) float64 {
	if p.DataBytes == 0 {
		return 0
	}
	optimal := float64(p.DataBytes) * float64(n) / float64(p.K)
	return float64(p.StoredBytes(n))/optimal - 1
}
