// Package store implements the Fusion object store core (§4-5 of the
// paper): Put with file-format-aware coding and placement, Get with
// degraded reads, and Query with two-stage fine-grained adaptive pushdown.
// It also implements the paper's baseline — a MinIO/Ceph-representative
// store that erasure-codes objects into fixed blocks and reassembles column
// chunks at the coordinator — behind the same API, selected by Options.
package store

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"

	"github.com/fusionstore/fusion/internal/erasure"
	"github.com/fusionstore/fusion/internal/fac"
	"github.com/fusionstore/fusion/internal/lpq"
)

// LayoutMode records how an object was coded.
type LayoutMode uint8

const (
	// LayoutFAC is Fusion's file-format-aware coding (variable-size bins,
	// chunks never split).
	LayoutFAC LayoutMode = iota
	// LayoutFixed is conventional fixed-block striping (chunks may split).
	LayoutFixed
)

func (m LayoutMode) String() string {
	if m == LayoutFAC {
		return "FAC"
	}
	return "FIXED"
}

// ItemKind distinguishes real column chunks from the non-computable byte
// ranges (file header, footer) that must also be stored.
type ItemKind uint8

const (
	// ItemChunk is a column chunk (the smallest computable unit).
	ItemChunk ItemKind = iota
	// ItemHeader is the file's leading magic bytes.
	ItemHeader
	// ItemFooter is the footer region.
	ItemFooter
)

// Item is one packing unit of the object: a column chunk or a pseudo-extent
// covering header/footer bytes. Items tile the object's byte range exactly.
type Item struct {
	Kind   ItemKind
	Offset uint64
	Size   uint64
	// RG and Col identify the chunk for ItemChunk.
	RG, Col int
}

// ItemLoc locates an item's bytes in the cluster.
type ItemLoc struct {
	Stripe int
	Bin    int
	// Offset of the item within its bin (FAC mode).
	BinOffset uint64
}

// StripeMeta describes one stored stripe: which nodes hold its n blocks.
type StripeMeta struct {
	// Capacity is the logical block size (largest bin; parity blocks have
	// exactly this size).
	Capacity uint64
	// Nodes[j] holds block j (0..k-1 data bins, k..n-1 parity).
	Nodes []int
	// BlockIDs[j] names block j on its node.
	BlockIDs []string
	// DataLens[j] is the stored length of data bin j (j < k); bins are
	// stored unpadded and zero-extended to Capacity for decoding.
	DataLens []uint64
	// Checksums[j] is the CRC32C of block j's stored (unpadded) bytes,
	// recorded at write time. Readers verify survivors against these before
	// feeding them to RS decode, so a rotted block is treated as an erasure
	// instead of silently corrupting the reconstruction.
	Checksums []uint32
}

// ObjectMeta is the per-object metadata Fusion keeps: the parsed footer,
// the item layout and the chunk location map. It is replicated to k+1
// nodes for durability (§5 "Metadata Management").
type ObjectMeta struct {
	Name string
	Size uint64
	Mode LayoutMode
	// Version increments on each overwrite; updates are fresh inserts (§5).
	Version uint64
	// Epoch is the write attempt that produced this metadata's blocks.
	// Epochs are allocated from a per-object quorum counter before any block
	// is written, so two attempts — even either side of a coordinator crash —
	// never share block names; block IDs embed the epoch, and only the
	// metadata publish (the commit point) makes an epoch's blocks reachable.
	Epoch uint64

	// Footer is the object's parsed lpq footer (schema, chunk metadata).
	Footer *lpq.Footer
	// Items tile the object: header, chunks in file order, footer.
	Items []Item
	// Stripes is the stored stripe list.
	Stripes []StripeMeta
	// ItemLocs[i] locates Items[i] (FAC mode).
	ItemLocs []ItemLoc
	// BlockSize is the fixed block size (fixed mode).
	BlockSize uint64
}

// ChunkItemIndex returns the index in Items of chunk (rg, col), or -1.
func (m *ObjectMeta) ChunkItemIndex(rg, col int) int {
	if m.Footer == nil {
		return -1
	}
	// Items are [header, chunks in rg-major order..., footer].
	idx := 1 + rg*len(m.Footer.Columns) + col
	if idx >= len(m.Items) || m.Items[idx].Kind != ItemChunk ||
		m.Items[idx].RG != rg || m.Items[idx].Col != col {
		// Fall back to a scan (robust to future layout changes).
		for i, it := range m.Items {
			if it.Kind == ItemChunk && it.RG == rg && it.Col == col {
				return i
			}
		}
		return -1
	}
	return idx
}

// blocks lists every data and parity block of this object version with the
// node holding it.
func (m *ObjectMeta) blocks() []placedBlock {
	var out []placedBlock
	for _, st := range m.Stripes {
		for j, id := range st.BlockIDs {
			out = append(out, placedBlock{node: st.Nodes[j], id: id})
		}
	}
	return out
}

// buildItemsSized tiles the object into items from its parsed footer:
// leading magic, every chunk in rg-major order, then the footer region. It
// verifies the tiling is exact (no gaps, no overlaps). It needs only the
// footer and the object's total size — the streaming Put path computes the
// whole layout before a single body byte is resident.
func buildItemsSized(size uint64, footerSize int, footer *lpq.Footer) ([]Item, error) {
	if uint64(footerSize) > size {
		return nil, fmt.Errorf("store: footer region (%d bytes) exceeds object size %d", footerSize, size)
	}
	items := []Item{{Kind: ItemHeader, Offset: 0, Size: uint64(len(lpq.Magic))}}
	for rg, rgMeta := range footer.RowGroups {
		for col, ch := range rgMeta.Chunks {
			items = append(items, Item{Kind: ItemChunk, Offset: ch.Offset, Size: ch.Size, RG: rg, Col: col})
		}
	}
	items = append(items, Item{
		Kind:   ItemFooter,
		Offset: size - uint64(footerSize),
		Size:   uint64(footerSize),
	})
	// Verify exact tiling in offset order.
	sorted := append([]Item(nil), items...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Offset < sorted[b].Offset })
	var pos uint64
	for _, it := range sorted {
		if it.Offset != pos {
			return nil, fmt.Errorf("store: object bytes [%d,%d) not covered by footer layout", pos, it.Offset)
		}
		pos += it.Size
	}
	if pos != size {
		return nil, fmt.Errorf("store: layout covers %d of %d object bytes", pos, size)
	}
	return items, nil
}

// itemSizes extracts the packing sizes from items.
func itemSizes(items []Item) []uint64 {
	sizes := make([]uint64, len(items))
	for i, it := range items {
		sizes[i] = it.Size
	}
	return sizes
}

// itemGroups labels each item with its row group for fac.GatherRowGroups:
// a chunk's RG, -1 for the header and footer.
func itemGroups(items []Item) []int {
	groups := make([]int, len(items))
	for i, it := range items {
		groups[i] = -1
		if it.Kind == ItemChunk {
			groups[i] = it.RG
		}
	}
	return groups
}

// facLayoutToMeta converts a fac.Layout plus per-stripe node/block choices
// into item locations.
func facLayoutToMeta(layout fac.Layout, items []Item) []ItemLoc {
	locs := make([]ItemLoc, len(items))
	for si, st := range layout.Stripes {
		for j, bin := range st.Bins {
			var off uint64
			for _, itemIdx := range bin {
				locs[itemIdx] = ItemLoc{Stripe: si, Bin: j, BinOffset: off}
				off += items[itemIdx].Size
			}
		}
	}
	return locs
}

// EncodeMeta serializes object metadata for replication to storage nodes.
func EncodeMeta(m *ObjectMeta) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return nil, fmt.Errorf("store: encoding metadata: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeMeta parses the output of EncodeMeta, as stored for a cluster coding
// with p. The bytes come from storage nodes and every read indexes the stripe
// and location tables with what they say, so this is where their shape is
// checked — once, instead of at each use.
func DecodeMeta(data []byte, p erasure.Params) (*ObjectMeta, error) {
	var m ObjectMeta
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&m); err != nil {
		return nil, fmt.Errorf("store: decoding metadata: %w", err)
	}
	if err := m.validate(p); err != nil {
		return nil, fmt.Errorf("store: malformed metadata for %q: %w", m.Name, err)
	}
	return &m, nil
}

// validate checks that every stripe names its n blocks (node, id, checksum)
// and k data lengths — placeRound records exactly that — and that the layout
// points inside them: under FAC each item's bytes lie within a data bin, under
// fixed blocks the stripes hold every block of the object.
func (m *ObjectMeta) validate(p erasure.Params) error {
	for i, st := range m.Stripes {
		if len(st.Nodes) != p.N || len(st.BlockIDs) != p.N || len(st.Checksums) != p.N || len(st.DataLens) != p.K {
			return fmt.Errorf("stripe %d does not carry %d nodes, block ids and checksums and %d data lengths", i, p.N, p.K)
		}
	}
	if m.Mode == LayoutFixed {
		if m.BlockSize == 0 || (m.Size+m.BlockSize-1)/m.BlockSize > uint64(len(m.Stripes)*p.K) {
			return fmt.Errorf("%d stripes of %d-byte blocks cannot hold %d bytes", len(m.Stripes), m.BlockSize, m.Size)
		}
		return nil
	}
	if len(m.ItemLocs) != len(m.Items) {
		return fmt.Errorf("%d item locations for %d items", len(m.ItemLocs), len(m.Items))
	}
	for i, loc := range m.ItemLocs {
		if loc.Stripe < 0 || loc.Stripe >= len(m.Stripes) || loc.Bin < 0 || loc.Bin >= p.K {
			return fmt.Errorf("item %d located at stripe %d bin %d, outside %d stripes of %d bins",
				i, loc.Stripe, loc.Bin, len(m.Stripes), p.K)
		}
		if binLen := m.Stripes[loc.Stripe].DataLens[loc.Bin]; loc.BinOffset > binLen || m.Items[i].Size > binLen-loc.BinOffset {
			return fmt.Errorf("item %d [%d,+%d) overruns its %d-byte bin", i, loc.BinOffset, m.Items[i].Size, binLen)
		}
	}
	return nil
}
