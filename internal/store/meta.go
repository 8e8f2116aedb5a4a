// Package store implements the Fusion object store core (§4-5 of the
// paper): Put with file-format-aware coding and placement, Get with
// degraded reads, and Query with two-stage fine-grained adaptive pushdown.
// It also implements the paper's baseline — a MinIO/Ceph-representative
// store that erasure-codes objects into fixed blocks and reassembles column
// chunks at the coordinator — behind the same API, selected by Options.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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
	// BlockIDs[j] names block j on its node: blockID(object, epoch, stripe,
	// j), which the register value does not hold but DecodeMeta derives.
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
// nodes for durability (§5 "Metadata Management") as the register value
// EncodeMeta writes.
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
	// Items tile the object: header, chunks in file order, footer. The
	// register value holds the footer region's size, from which DecodeMeta
	// tiles them again (buildItemsSized).
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

// The register value. EncodeMeta writes, and DecodeMeta reads, the metadata
// an object's register holds, with the rules of the RPC wire
// (internal/rpc/wire.go): fields in order, no type descriptors, unsigned
// integers as uvarints, every count checked against the bytes still unread
// before anything is allocated.
//
//	format         one byte, metaFormat
//	name           uvarint length, then the bytes
//	size, mode, version, epoch, block size   uvarints
//	footer region  uvarint: the object's bytes the footer occupies
//	footer         uvarint length, then lpq.EncodeFooter's bytes
//	stripes        uvarint count, then each stripe's capacity, its n nodes
//	               and k data lengths as uvarints, and its n checksums as
//	               4 little-endian bytes each (a CRC is as likely to be any
//	               32-bit value, which takes a uvarint 5 bytes on average)
//	item locations under FAC, one an item: stripe, bin and bin offset
//
// What Put computes from these is not stored: n and k are the cluster's
// erasure.Params, the items are the tiling buildItemsSized makes of the
// footer (and so their count is the locations'), and a block's id is
// blockID(name, epoch, stripe, block). A value that is not all of this —
// truncated, with bytes left over, or of another format — is refused.
//
// metaFormat is the first byte of every value. No encoding/gob stream opens
// with a byte in 0x80–0xF7 (its first byte is a message length: below 0x80,
// or 0xF8–0xFF before a longer one), so a value an older build wrote in gob
// is refused by it.
const metaFormat = 0x81

// minStripe is the smallest encoding of a stripe of n blocks, k of them
// data, and minItemLoc that of an item location: a byte for each uvarint and
// 4 for each checksum.
func minStripe(p erasure.Params) int { return 1 + p.N + p.K + 4*p.N }

const minItemLoc = 3

var (
	errMetaTruncated = errors.New("truncated")
	errMetaRange     = errors.New("value out of range")
	errMetaCount     = errors.New("count exceeds the bytes present")
	errMetaTrailing  = errors.New("trailing bytes")
)

// EncodeMeta serializes object metadata for replication to storage nodes.
// Metadata the value cannot express is an error: no footer item, stripes of
// unequal shapes, or under FAC a location count other than the items'.
func EncodeMeta(m *ObjectMeta) ([]byte, error) {
	if m.Footer == nil || len(m.Items) == 0 || m.Items[len(m.Items)-1].Kind != ItemFooter {
		return nil, fmt.Errorf("store: metadata for %q has no footer", m.Name)
	}
	if m.Mode == LayoutFAC && len(m.ItemLocs) != len(m.Items) {
		return nil, fmt.Errorf("store: metadata for %q has %d item locations for %d items", m.Name, len(m.ItemLocs), len(m.Items))
	}
	for i, st := range m.Stripes {
		n, k := len(m.Stripes[0].Nodes), len(m.Stripes[0].DataLens)
		if len(st.Nodes) != n || len(st.Checksums) != n || len(st.DataLens) != k || k >= n {
			return nil, fmt.Errorf("store: metadata for %q: stripe %d is not of %d blocks, %d of them data", m.Name, i, n, k)
		}
	}
	footer := lpq.EncodeFooter(m.Footer)
	b := make([]byte, 0, 64+len(m.Name)+len(footer)+len(m.Stripes)*64+len(m.ItemLocs)*6)
	b = append(b, metaFormat)
	b = binary.AppendUvarint(b, uint64(len(m.Name)))
	b = append(b, m.Name...)
	for _, v := range []uint64{m.Size, uint64(m.Mode), m.Version, m.Epoch, m.BlockSize, m.Items[len(m.Items)-1].Size, uint64(len(footer))} {
		b = binary.AppendUvarint(b, v)
	}
	b = append(b, footer...)
	b = binary.AppendUvarint(b, uint64(len(m.Stripes)))
	for _, st := range m.Stripes {
		b = binary.AppendUvarint(b, st.Capacity)
		for _, node := range st.Nodes {
			b = binary.AppendUvarint(b, uint64(node))
		}
		for _, l := range st.DataLens {
			b = binary.AppendUvarint(b, l)
		}
		for _, c := range st.Checksums {
			b = binary.LittleEndian.AppendUint32(b, c)
		}
	}
	if m.Mode == LayoutFAC {
		for _, loc := range m.ItemLocs {
			b = binary.AppendUvarint(b, uint64(loc.Stripe))
			b = binary.AppendUvarint(b, uint64(loc.Bin))
			b = binary.AppendUvarint(b, loc.BinOffset)
		}
	}
	return b, nil
}

// DecodeMeta parses the output of EncodeMeta, as stored for a cluster coding
// with p. The bytes come from storage nodes and every read indexes the stripe
// and location tables with what they say, so this is where their shape is
// checked — once, instead of at each use.
func DecodeMeta(data []byte, p erasure.Params) (*ObjectMeta, error) {
	m, err := decodeMeta(data, p)
	if err != nil {
		return nil, fmt.Errorf("store: decoding metadata: %w", err)
	}
	if err := m.validate(p); err != nil {
		return nil, fmt.Errorf("store: malformed metadata for %q: %w", m.Name, err)
	}
	return m, nil
}

func decodeMeta(data []byte, p erasure.Params) (*ObjectMeta, error) {
	if len(data) == 0 {
		return nil, errMetaTruncated
	}
	if data[0] != metaFormat {
		return nil, fmt.Errorf("format byte %#02x is not %#02x (an encoding/gob value from an older build is not read)", data[0], metaFormat)
	}
	d := metaDecoder{b: data[1:]}
	m := &ObjectMeta{Name: string(d.bytes(d.uvarint()))}
	m.Size = d.uvarint()
	mode := d.uvarint()
	if mode > uint64(LayoutFixed) {
		d.fail(errMetaRange)
	}
	m.Mode = LayoutMode(mode)
	m.Version, m.Epoch, m.BlockSize = d.uvarint(), d.uvarint(), d.uvarint()
	region := d.int()
	footer := d.bytes(d.uvarint())
	if d.err != nil {
		return nil, d.err
	}
	var err error
	if m.Footer, err = lpq.DecodeFooter(footer); err != nil {
		return nil, fmt.Errorf("footer: %w", err)
	}
	if m.Items, err = buildItemsSized(m.Size, region, m.Footer); err != nil {
		return nil, err
	}
	if n := d.count(minStripe(p)); n > 0 {
		m.Stripes = make([]StripeMeta, n)
	}
	for si := range m.Stripes {
		st := &m.Stripes[si]
		st.Capacity = d.uvarint()
		st.Nodes, st.BlockIDs = make([]int, p.N), make([]string, p.N)
		st.DataLens, st.Checksums = make([]uint64, p.K), make([]uint32, p.N)
		for j := range st.Nodes {
			st.Nodes[j] = d.int()
			st.BlockIDs[j] = blockID(m.Name, m.Epoch, si, j)
		}
		for j := range st.DataLens {
			st.DataLens[j] = d.uvarint()
		}
		for j := range st.Checksums {
			st.Checksums[j] = d.uint32()
		}
	}
	if m.Mode == LayoutFAC && d.err == nil {
		if len(m.Items) > len(d.b)/minItemLoc {
			d.fail(errMetaCount)
		} else {
			m.ItemLocs = make([]ItemLoc, len(m.Items))
		}
		for i := range m.ItemLocs {
			m.ItemLocs[i] = ItemLoc{Stripe: d.int(), Bin: d.int(), BinOffset: d.uvarint()}
		}
	}
	if d.err == nil && len(d.b) != 0 {
		d.fail(errMetaTrailing)
	}
	if d.err != nil {
		return nil, d.err
	}
	return m, nil
}

// metaDecoder reads a register value's fields off the front of b. As in the
// RPC wire's decoder, the first failure sticks: err is set, b is emptied, and
// every later read returns zero — count, which gates every allocation,
// returns 0.
type metaDecoder struct {
	b   []byte
	err error
}

func (d *metaDecoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

func (d *metaDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		if n == 0 {
			d.fail(errMetaTruncated)
		} else {
			d.fail(errMetaRange)
		}
		return 0
	}
	d.b = d.b[n:]
	return v
}

// int reads a uvarint that must fit an int.
func (d *metaDecoder) int() int {
	v := d.uvarint()
	if v > math.MaxInt {
		d.fail(errMetaRange)
		return 0
	}
	return int(v)
}

// count reads an element count, refusing one that the unread bytes cannot
// hold at size bytes an element.
func (d *metaDecoder) count(size int) int {
	v := d.uvarint()
	if v > uint64(len(d.b)/size) {
		d.fail(errMetaCount)
		return 0
	}
	return int(v)
}

// bytes returns the next n bytes, capacity-clipped, or nil with d.err set
// when fewer remain.
func (d *metaDecoder) bytes(n uint64) []byte {
	if n > uint64(len(d.b)) {
		d.fail(errMetaTruncated)
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

// uint32 reads 4 little-endian bytes.
func (d *metaDecoder) uint32() uint32 {
	if b := d.bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
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
