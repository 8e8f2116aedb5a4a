package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"sync"
	"time"

	"github.com/fusionstore/fusion/internal/bitmap"
	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/metrics"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/sql"
)

// castagnoli is the CRC32C polynomial table (hardware-accelerated on
// amd64/arm64 via hash/crc32's SSE4.2/CRC32 fast paths).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the block checksum used across the durability layer: CRC32C
// over the stored (unpadded) block bytes.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// ChecksumAll is Checksum of the concatenation of bs: a block read in
// pieces, such as one landed in windows (rpc.Response.Landed).
func ChecksumAll(bs [][]byte) uint32 {
	var c uint32
	for _, b := range bs {
		c = crc32.Update(c, castagnoli, b)
	}
	return c
}

// ErrChecksum reports a block whose bytes no longer match its recorded
// CRC32C — bit rot at rest, or a write whose payload was corrupted in
// flight. It crosses the wire as a Response.Err string; use IsChecksumErr
// on that side.
var ErrChecksum = errors.New("cluster: block checksum mismatch")

// IsChecksumErr reports whether a Response.Err string carries ErrChecksum.
func IsChecksumErr(msg string) bool {
	return strings.Contains(msg, "block checksum mismatch")
}

// ErrExpired reports work a node refused (or abandoned at a batch
// checkpoint) because the request's relative deadline budget
// (rpc.Request.DeadlineMicros) had already elapsed — the caller gave up, so
// finishing the work would only burn node CPU for an abandoned request. It
// crosses the wire as a Response.Err string; use IsExpiredErr on that side.
var ErrExpired = errors.New("cluster: request deadline expired")

// IsExpiredErr reports whether a Response.Err string carries ErrExpired.
func IsExpiredErr(msg string) bool {
	return strings.Contains(msg, "request deadline expired")
}

// blockEntry is the node's durability record for one block: which write
// attempt produced it, whether that attempt has committed, and the CRC32C
// its bytes must verify against.
type blockEntry struct {
	object  string
	epoch   uint64
	crc     uint32
	pending bool
}

// attempt names one write attempt: an object version being written.
type attempt struct {
	object string
	epoch  uint64
}

// Node is one Fusion storage node: a block store plus the in-situ pushdown
// executor. Every node is identical; any of them can additionally act as a
// coordinator (§4.1), which the store layer implements on top of Client.
type Node struct {
	ID     int
	Blocks BlockStore

	hist *metrics.HistogramSet

	mu      sync.Mutex
	entries map[string]blockEntry
	// pending indexes the ids of the entries with pending set by the attempt
	// that prepared them, so CommitObject touches exactly its own blocks
	// instead of walking every entry on the node. Only record changes either
	// map; an attempt with no pending block has no key.
	pending map[attempt]map[string]struct{}
}

// NewNode returns a node backed by the given store.
func NewNode(id int, bs BlockStore) *Node {
	return &Node{
		ID: id, Blocks: bs,
		entries: make(map[string]blockEntry),
		pending: make(map[attempt]map[string]struct{}),
	}
}

// record replaces a block's durability record — or, with keep false, drops
// it — and keeps the pending index exact. The caller holds n.mu.
func (n *Node) record(id string, e blockEntry, keep bool) {
	if old, ok := n.entries[id]; ok && old.pending {
		key := attempt{old.object, old.epoch}
		delete(n.pending[key], id)
		if len(n.pending[key]) == 0 {
			delete(n.pending, key)
		}
	}
	if !keep {
		delete(n.entries, id)
		return
	}
	n.entries[id] = e
	if e.pending {
		key := attempt{e.object, e.epoch}
		if n.pending[key] == nil {
			n.pending[key] = make(map[string]struct{})
		}
		n.pending[key][id] = struct{}{}
	}
}

// SetMetrics installs a node-side latency histogram set: every handled RPC
// is timed under Key{Op: "node.<kind>", Node: ID}. A nil set (the default)
// disables timing entirely.
func (n *Node) SetMetrics(h *metrics.HistogramSet) { n.hist = h }

// Handle executes one request against this node. It never panics on
// malformed input; errors are reported in Response.Err.
//
// A request carrying a positive DeadlineMicros is held to that budget: the
// deadline is the handling start plus the relative budget (stamped by the
// coordinator at send time, so clock skew never shifts it), already-expired
// work is rejected before touching storage, and batch frames re-check at
// every sub-op boundary — the checkpoints that let a long scan abort
// mid-row-group once its caller has given up.
func (n *Node) Handle(req *rpc.Request) *rpc.Response {
	start := time.Now()
	var deadline time.Time
	if req.DeadlineMicros > 0 {
		deadline = start.Add(time.Duration(req.DeadlineMicros) * time.Microsecond)
	}
	if n.hist == nil {
		return n.handle(req, deadline)
	}
	resp := n.handle(req, deadline)
	n.hist.Observe(metrics.Key{Op: "node." + req.Kind.String(), Node: n.ID}, time.Since(start))
	return resp
}

// expired reports whether a request's deadline budget has elapsed (a zero
// deadline means unbounded).
func expired(deadline time.Time) bool {
	return !deadline.IsZero() && !time.Now().Before(deadline)
}

// handle executes one request frame. The chunks it opens are released before
// it returns: no reply references them.
func (n *Node) handle(req *rpc.Request, deadline time.Time) *rpc.Response {
	if expired(deadline) {
		return errResp(fmt.Errorf("%w: %s", ErrExpired, req.Kind))
	}
	if req.Kind == rpc.KindBatch {
		return n.handleBatch(req, deadline)
	}
	f := newFrame(n, req)
	defer f.release()
	return n.dispatch(f, req)
}

// dispatch executes one operation of frame f: the request itself, or a
// sub-op of a batch.
func (n *Node) dispatch(f *frame, req *rpc.Request) *rpc.Response {
	switch req.Kind {
	case rpc.KindPing:
		return &rpc.Response{}
	case rpc.KindPutBlock:
		return n.handlePut(req, false)
	case rpc.KindPrepareBlock:
		return n.handlePut(req, true)
	case rpc.KindCommitObject:
		return n.handleCommit(req)
	case rpc.KindListBlocks:
		return n.handleList()
	case rpc.KindGetBlock:
		return n.handleGet(req)
	case rpc.KindDeleteBlock:
		if err := n.Blocks.Delete(req.BlockID); err != nil {
			return errResp(err)
		}
		n.mu.Lock()
		n.record(req.BlockID, blockEntry{}, false)
		n.mu.Unlock()
		return &rpc.Response{}
	case rpc.KindBlockSize:
		size, err := n.Blocks.Size(req.BlockID)
		if err != nil {
			return errResp(err)
		}
		return &rpc.Response{Size: size}
	case rpc.KindFilter:
		return f.handleFilter(req)
	case rpc.KindProject:
		return f.handleProject(req)
	case rpc.KindGroupAgg:
		return f.handleGroupAgg(req)
	case rpc.KindTopK:
		return f.handleTopK(req)
	default:
		return errResp(fmt.Errorf("cluster: unknown request kind %d", req.Kind))
	}
}

// handlePut stores a block. A request carrying an Object ties the block to
// a write attempt: the payload is verified against req.Crc before it
// touches the block store (rejecting writes corrupted in flight) and a
// durability record is kept — pending for PrepareBlock (phase one of the
// two-phase write), committed for PutBlock (repair/scrub rewrites).
// Object-less PutBlock keeps the legacy semantics for the metadata
// register, which carries its own payload checksum.
func (n *Node) handlePut(req *rpc.Request, pending bool) *rpc.Response {
	if req.Object != "" || pending {
		if got := Checksum(req.Data); got != req.Crc {
			return errResp(fmt.Errorf("%w: %s: payload crc %08x, want %08x",
				ErrChecksum, req.BlockID, got, req.Crc))
		}
	}
	if err := n.Blocks.Put(req.BlockID, req.Data); err != nil {
		return errResp(err)
	}
	// A plain overwrite (no Object) invalidates any stale durability record.
	n.mu.Lock()
	n.record(req.BlockID, blockEntry{
		object: req.Object, epoch: req.Epoch, crc: req.Crc, pending: pending,
	}, req.Object != "" || pending)
	n.mu.Unlock()
	return &rpc.Response{}
}

// handleCommit flips every pending block of (Object, Epoch) to committed: the
// ids the pending index holds for that attempt, so the cost is the attempt's
// own block count, not the node's. Idempotent: re-committing, or committing
// after a reconciliation pass already did, finds no key and is a no-op.
func (n *Node) handleCommit(req *rpc.Request) *rpc.Response {
	key := attempt{req.Object, req.Epoch}
	n.mu.Lock()
	for id := range n.pending[key] {
		e := n.entries[id]
		e.pending = false
		n.entries[id] = e
	}
	delete(n.pending, key)
	n.mu.Unlock()
	return &rpc.Response{}
}

// handleList returns the node's block inventory. The block store is the
// source of truth for which blocks exist; durability records annotate the
// ones this node has seen prepared or checksummed (a restarted node may
// have blocks with no record — reconciliation falls back to parsing IDs).
func (n *Node) handleList() *rpc.Response {
	ids := n.Blocks.IDs()
	infos := make([]rpc.BlockInfo, 0, len(ids))
	n.mu.Lock()
	for _, id := range ids {
		info := rpc.BlockInfo{ID: id}
		if e, ok := n.entries[id]; ok {
			info.Object, info.Epoch, info.Pending = e.object, e.epoch, e.pending
			info.Crc, info.HasCrc = e.crc, true
		}
		infos = append(infos, info)
	}
	n.mu.Unlock()
	return &rpc.Response{Blocks: infos}
}

// handleGet serves a byte range of a block. Blocks with a durability record
// are verified at rest first — the whole block is read and checked against
// its recorded CRC32C, and a mismatch is served as ErrChecksum so the
// coordinator treats the block as an erasure (reconstruct-and-serve) and
// queues a repair. A request with CallerVerifies set skips that pass: the
// caller holds the block's checksum in its own metadata and verifies the
// received bytes itself, which covers rot and transit corruption in a
// single pass at the receiver. Every reply carries the CRC32C of the served
// range for end-to-end (in-flight) verification at the coordinator; a
// whole-block serve reuses the CRC the at-rest pass already computed (or
// the recorded one under CallerVerifies) instead of hashing the bytes
// again. The reply's Data is whatever the block store returned, resliced:
// from a MemStore a view of the stored block itself, which the transport
// sends (or, over simnet, the coordinator reads) without a copy having been
// made on this side.
func (n *Node) handleGet(req *rpc.Request) *rpc.Response {
	n.mu.Lock()
	e, verified := n.entries[req.BlockID]
	n.mu.Unlock()
	if !verified {
		data, err := n.Blocks.Get(req.BlockID, req.Offset, req.Length)
		if err != nil {
			return errResp(err)
		}
		return &rpc.Response{Data: data, Crc: Checksum(data), Cost: rpc.Cost{DiskBytes: uint64(len(data))}}
	}
	full, err := n.Blocks.Get(req.BlockID, 0, 0)
	if err != nil {
		return errResp(err)
	}
	cost := rpc.Cost{DiskBytes: uint64(len(full))}
	if !req.CallerVerifies {
		if got := Checksum(full); got != e.crc {
			return errRespCost(fmt.Errorf("%w: %s: crc %08x, want %08x",
				ErrChecksum, req.BlockID, got, e.crc), cost)
		}
	}
	data, err := sliceRange(full, req.Offset, req.Length)
	if err != nil {
		return errRespCost(err, cost)
	}
	crc := e.crc
	if len(data) != len(full) {
		crc = Checksum(data)
	}
	return &rpc.Response{Data: data, Crc: crc, Cost: cost}
}

// frame is the column chunks one request frame has open. A pushed operator
// computes on an opened chunk (lpq.Chunk: read, CRC-checked, decompressed and
// indexed, no row decoded), and sub-ops of one KindBatch frame that name the
// same chunk — a range predicate's two bounds, the key and the argument of
// GROUP BY x with SUM(x) — share one read and one open. The frame counts up
// front how often each chunk is named, so a chunk is released the moment its
// last use ends and a long frame holds one chunk's buffer at a time, not one
// per sub-op. Nothing outlives the frame: this is not a cache.
type frame struct {
	node   *Node
	uses   map[chunkKey]int        // uses of each chunk yet to finish
	chunks map[chunkKey]*lpq.Chunk // open now: in use, or awaiting a later use
}

// chunkKey identifies a chunk within a frame: where its bytes are and what
// OpenChunk reads of the reference, so two references with one key open to
// the same chunk. The statistics stay out — a float column that starts with
// NaN has NaN bounds, and a key holding a NaN never equals itself.
type chunkKey struct {
	blockID      string
	offset, size uint64
	crc          uint32
	typ          lpq.Type
	rows         int
	compressed   bool
}

func keyOf(ref *rpc.ChunkRef) chunkKey {
	return chunkKey{
		blockID: ref.BlockID, offset: ref.Offset, size: ref.Meta.Size, crc: ref.Meta.CRC,
		typ: ref.Type, rows: ref.Meta.NumValues, compressed: ref.Meta.Compressed,
	}
}

// newFrame counts the chunk uses of a request and its sub-requests. A request
// that names no chunk — every block operation — gets a nil frame and costs
// nothing here.
func newFrame(n *Node, req *rpc.Request) *frame {
	var f *frame
	use := func(ref *rpc.ChunkRef) {
		if f == nil {
			f = &frame{node: n, uses: make(map[chunkKey]int), chunks: make(map[chunkKey]*lpq.Chunk)}
		}
		f.uses[keyOf(ref)]++
	}
	// Mirrors which chunks each handler opens.
	count := func(r *rpc.Request) {
		switch r.Kind {
		case rpc.KindFilter, rpc.KindProject, rpc.KindTopK:
			use(&r.Chunk)
		case rpc.KindGroupAgg:
			// A reference without a BlockID is shipped in the sub-op's Data,
			// or is a COUNT's: not the frame's to open.
			for _, refs := range [2][]rpc.ChunkRef{r.KeyChunks, r.ValChunks} {
				for i := range refs {
					if refs[i].BlockID != "" {
						use(&refs[i])
					}
				}
			}
		}
	}
	count(req)
	for i := range req.Subs {
		count(&req.Subs[i])
	}
	return f
}

// open returns the referenced chunk, opened from local storage unless the
// frame already holds it, and the disk/processing cost of one use. The cost
// is charged per use, shared or not, so a sub-op's accounting does not depend
// on what else rode in its frame. Every successful open is paired with a
// close. The chunk's bytes are the block store's own (BlockStore.Get), which
// OpenChunk and the kernels only read.
func (f *frame) open(ref rpc.ChunkRef) (*lpq.Chunk, rpc.Cost, error) {
	cost := rpc.Cost{DiskBytes: ref.Meta.Size, ProcBytes: ref.Meta.RawSize}
	key := keyOf(&ref)
	if ch := f.chunks[key]; ch != nil {
		return ch, cost, nil
	}
	raw, err := f.node.Blocks.Get(ref.BlockID, ref.Offset, ref.Meta.Size)
	if err != nil {
		f.uses[key]--
		return nil, rpc.Cost{}, err
	}
	cost.DiskBytes = uint64(len(raw))
	ch, err := lpq.OpenChunk(ref.Type, ref.Meta, raw)
	if err != nil {
		f.uses[key]--
		return nil, cost, err
	}
	f.chunks[key] = ch
	return ch, cost, nil
}

// close ends one use of an opened chunk, releasing it after the frame's last.
func (f *frame) close(ref rpc.ChunkRef) {
	key := keyOf(&ref)
	if f.uses[key]--; f.uses[key] > 0 {
		return
	}
	if ch := f.chunks[key]; ch != nil {
		ch.Release()
		delete(f.chunks, key)
	}
}

// release frees whatever the frame still holds (sub-ops abandoned at a
// deadline checkpoint never used their chunks).
func (f *frame) release() {
	if f == nil {
		return
	}
	for _, ch := range f.chunks {
		ch.Release()
	}
}

// selection parses a request's row bitmap, which must cover the chunk's rows.
func selection(data []byte, ch *lpq.Chunk, what string) (*bitmap.Bitmap, error) {
	bm, err := bitmap.Unmarshal(data, ch.NumRows())
	if err != nil {
		return nil, fmt.Errorf("cluster: selection over the %s: %w", what, err)
	}
	return bm, nil
}

// handleFilter runs a pushed-down comparison on a local chunk and returns
// the result bitmap in its smallest wire form (§5 has the node read the
// chunk, run the filter and Snappy-compress the bitmap; bitmap.Marshal says
// why this one does not). The filter runs on the opened chunk: over the
// dictionary and then the codes, or over the plain pages' bytes.
func (f *frame) handleFilter(req *rpc.Request) *rpc.Response {
	ch, cost, err := f.open(req.Chunk)
	if err != nil {
		return errRespCost(err, cost)
	}
	defer f.close(req.Chunk)
	cmp := &sql.Compare{Column: "pushdown", Op: req.Op, Value: req.Value}
	bm, err := sql.FilterChunk(cmp, ch)
	if err != nil {
		return errRespCost(err, cost)
	}
	return &rpc.Response{Data: bm.Marshal(), Matches: bm.Count(), Cost: cost}
}

// handleProject returns the chunk values selected by the request bitmap in
// plain (uncompressed) encoding — the projection-stage reply whose size the
// cost model weighs against shipping the compressed chunk (§4.3). Only the
// selected rows are read from the pages, straight into the reply.
func (f *frame) handleProject(req *rpc.Request) *rpc.Response {
	ch, cost, err := f.open(req.Chunk)
	if err != nil {
		return errRespCost(err, cost)
	}
	defer f.close(req.Chunk)
	bm, err := selection(req.Bitmap, ch, "chunk")
	if err != nil {
		return errRespCost(err, cost)
	}
	matches := bm.Count()
	// Exact for the numeric types, a first guess for strings.
	data := make([]byte, 0, binary.MaxVarintLen64+1+8*matches)
	data, err = ch.AppendSelected(appendPlainHeader(data, ch.Type(), matches), bm)
	if err != nil {
		return errRespCost(err, cost)
	}
	return &rpc.Response{Data: data, Matches: matches, Cost: cost}
}

// handleGroupAgg folds one row group's selected rows into per-group partial
// aggregate states and returns them in deterministic key order. Only the
// partial states cross the network — (count, sum, min, max) per group and
// aggregate, never a pre-divided AVG — so the coordinator's merge is exact
// regardless of how rows were split across nodes. With no key chunks it
// is an ungrouped aggregate; a request that names no chunk at all is refused.
//
// A reference with a BlockID names a chunk in this node's blocks, opened
// through the frame. One without names req.Data[Offset:Offset+Meta.Size], a
// chunk the coordinator shipped from another node: opened once for this
// sub-op alone (the frame's chunks are keyed by block), checked against its
// CRC like any chunk, and read from no disk here.
func (f *frame) handleGroupAgg(req *rpc.Request) *rpc.Response {
	var cost rpc.Cost
	if len(req.ValChunks) != len(req.AggKinds) {
		return errResp(fmt.Errorf("cluster: GroupAgg has %d value chunks, %d aggregate kinds",
			len(req.ValChunks), len(req.AggKinds)))
	}
	var bm *bitmap.Bitmap    // parsed against the first chunk opened
	var local []rpc.ChunkRef // opened through the frame: closed on return
	var shipped map[chunkKey]*lpq.Chunk
	defer func() {
		for _, ref := range local {
			f.close(ref)
		}
		for _, ch := range shipped {
			ch.Release()
		}
	}()
	open := func(ref rpc.ChunkRef, what string) (ch *lpq.Chunk, err error) {
		if ref.BlockID != "" {
			var c rpc.Cost
			ch, c, err = f.open(ref)
			cost.Add(c)
			if err != nil {
				return nil, err
			}
			local = append(local, ref)
		} else {
			key := keyOf(&ref)
			if ch = shipped[key]; ch == nil {
				raw, err := sliceRange(req.Data, ref.Offset, ref.Meta.Size)
				if err == nil {
					ch, err = lpq.OpenChunk(ref.Type, ref.Meta, raw)
				}
				if err != nil {
					return nil, fmt.Errorf("cluster: shipped %s: %w", what, err)
				}
				if shipped == nil {
					shipped = make(map[chunkKey]*lpq.Chunk)
				}
				shipped[key] = ch
			}
			cost.ProcBytes += ref.Meta.RawSize
		}
		if bm == nil {
			if bm, err = selection(req.Bitmap, ch, what); err != nil {
				return nil, err
			}
		}
		if ch.NumRows() != bm.Len() {
			return nil, fmt.Errorf("cluster: bitmap has %d rows, %s has %d", bm.Len(), what, ch.NumRows())
		}
		return ch, nil
	}
	var err error
	keys := make([]*lpq.Chunk, len(req.KeyChunks))
	for i, ref := range req.KeyChunks {
		if keys[i], err = open(ref, "key chunk"); err != nil {
			return errRespCost(err, cost)
		}
	}
	vals := make([]*lpq.Chunk, len(req.ValChunks))
	for i, ref := range req.ValChunks {
		if ref.BlockID == "" && ref.Meta.Size == 0 {
			continue // the zero ref, a COUNT's: no argument column
		}
		if vals[i], err = open(ref, "value chunk"); err != nil {
			return errRespCost(err, cost)
		}
	}
	if bm == nil { // set by the first chunk opened
		return errResp(fmt.Errorf("cluster: GroupAgg reads no column"))
	}
	g := sql.NewGroupTable(req.AggKinds, req.MaxGroups)
	if err := g.AddChunks(keys, vals, bm); err != nil {
		return errRespCost(err, cost)
	}
	return &rpc.Response{Groups: g.Sorted(), Matches: bm.Count(), Cost: cost}
}

// handleTopK returns the row group's local top-k selected rows by the
// request's order chunk: each candidate carries its sort key and global
// (rg, row) position, so the coordinator's bounded k-way merge stays
// deterministic under ties.
func (f *frame) handleTopK(req *rpc.Request) *rpc.Response {
	ch, cost, err := f.open(req.Chunk)
	if err != nil {
		return errRespCost(err, cost)
	}
	defer f.close(req.Chunk)
	bm, err := selection(req.Bitmap, ch, "chunk")
	if err != nil {
		return errRespCost(err, cost)
	}
	tk := sql.NewTopK(req.K, req.Desc)
	if err := tk.PushChunk(ch, bm, req.RG); err != nil {
		return errRespCost(err, cost)
	}
	return &rpc.Response{TopRows: tk.Rows(), Matches: bm.Count(), Cost: cost}
}

// handleBatch executes a scatter-gather frame: each sub-request runs through
// the regular dispatch and its result lands in the index-aligned
// sub-response. Failures stay per-op (a missing block fails only its slot);
// only a malformed batch — over the op cap, nested, or carrying a
// non-batchable kind — fails the frame as a whole. The outer Cost aggregates
// the sub-ops' so transports and the latency model account the frame as one
// round trip of combined work.
//
// Sub-op boundaries are the frame's deadline checkpoints: once the request
// budget elapses, every remaining sub-op fails with ErrExpired instead of
// running — a long scan aborts mid-row-group rather than finishing work its
// caller abandoned.
func (n *Node) handleBatch(req *rpc.Request, deadline time.Time) *rpc.Response {
	if msg := rpc.ValidateBatch(req); msg != "" {
		return errResp(fmt.Errorf("cluster: %s", msg))
	}
	f := newFrame(n, req)
	defer f.release()
	out := &rpc.Response{Subs: make([]rpc.Response, len(req.Subs))}
	for i := range req.Subs {
		if expired(deadline) {
			err := fmt.Errorf("%w: batch abandoned at sub-op %d/%d", ErrExpired, i, len(req.Subs))
			for j := i; j < len(req.Subs); j++ {
				out.Subs[j] = rpc.Response{Err: err.Error()}
			}
			return out
		}
		sub := n.dispatch(f, &req.Subs[i])
		out.Subs[i] = *sub
		out.Cost.Add(sub.Cost)
	}
	return out
}

func errResp(err error) *rpc.Response { return &rpc.Response{Err: err.Error()} }

func errRespCost(err error, c rpc.Cost) *rpc.Response {
	return &rpc.Response{Err: err.Error(), Cost: c}
}
