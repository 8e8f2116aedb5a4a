// Package rpc defines the request/response messages exchanged between a
// Fusion coordinator and storage nodes, shared by the simulated transport
// (simnet) and the real TCP transport (tcpnet). Every node exposes the same
// small service surface (§4.1: nodes are identical; any node coordinates):
// block storage primitives plus the pushdown operations: Filter, Project,
// GroupAgg and TopK.
package rpc

import (
	"context"

	"github.com/fusionstore/fusion/internal/bufpool"
	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/sql"
)

// Kind identifies the operation a Request carries.
type Kind uint8

const (
	// KindPing checks liveness.
	KindPing Kind = iota
	// KindPutBlock stores a named block.
	KindPutBlock
	// KindGetBlock reads a byte range of a block (Length 0 = whole block).
	KindGetBlock
	// KindDeleteBlock removes a block.
	KindDeleteBlock
	// KindBlockSize stats a block.
	KindBlockSize
	// KindFilter executes a conjunction of comparisons (Leaves), each on a
	// column chunk of one row group held by the node, and returns their AND
	// as one compressed row bitmap (filter-stage pushdown). A single
	// comparison is a one-leaf conjunction.
	KindFilter
	// KindProject returns the chunk's rows selected by a bitmap, as a chunk
	// of their own in the chunk's encoding, uncompressed (projection-stage
	// pushdown; lpq.Chunk.AppendSelected writes it, lpq.OpenReply opens it).
	// A Project whose selection is a conjunction (Leaves) may decline: see
	// Response.Size.
	KindProject
	// KindAggregate is retired: an ungrouped aggregate is pushed as a
	// KindGroupAgg with no key chunks. The value keeps its place so the kinds
	// after it keep theirs; no coordinator sends it and a node refuses it as
	// an unknown kind.
	KindAggregate
	// KindPrepareBlock is phase one of the crash-consistent write protocol:
	// it stores a named block like KindPutBlock but tags it pending under
	// (Object, Epoch) and records its CRC32C, rejecting payloads whose bytes
	// do not match Crc. Pending blocks are readable (a committed metadata
	// record may reference them before the commit fan-out lands) but are
	// garbage unless the object's metadata commits their epoch.
	//
	// One frame may prepare several blocks on a node: a KindPrepareBlock
	// with Subs, each a bare PrepareBlock of its own (ValidatePrepare). The
	// node checks and stores each independently and answers each in the
	// index-aligned sub-response, so one refused block never fails its
	// siblings.
	KindPrepareBlock
	// KindCommitObject is phase two: it flips every pending block of
	// (Object, Epoch) on the node to committed. Idempotent.
	KindCommitObject
	// KindListBlocks returns the node's block inventory with each block's
	// pending/committed state and CRC — the substrate for orphan
	// reconciliation and repair catch-up.
	KindListBlocks
	// KindBatch carries many sub-requests for the same node in one frame
	// (scatter-gather). The node executes each sub-request independently and
	// returns a sub-response per sub-request in order, so one slow or failed
	// op never poisons its siblings. The data-plane reads (GetBlock, Filter,
	// Project, GroupAgg, TopK) and one mutation, DeleteBlock, may
	// be batched; nesting batches is an error.
	KindBatch
	// KindGroupAgg computes per-group partial aggregates over one row
	// group's selected rows: the node reads the key chunks and aggregate
	// argument chunks it holds, or that arrive in the request's Data, folds
	// them into a sql.GroupTable, and
	// returns the partial states in deterministic key order — never a
	// pre-divided AVG (GROUP BY pushdown, the OASIS-style extension of the
	// paper's aggregation offload). With no key chunks it is an ungrouped
	// aggregate: at most one group, keyed by nothing.
	KindGroupAgg
	// KindTopK returns the row group's local top-k rows by one order
	// column: (value, row) pairs the coordinator feeds into a bounded
	// k-way merge (ORDER BY + LIMIT pushdown).
	KindTopK
	// KindRaiseVersion is the metadata register's one conditional write: it
	// raises the register replica BlockID to version Epoch, keeping the
	// value the replica holds, if and only if Epoch is above the version it
	// holds (cluster.EncodeVersioned). The node compares and writes under a
	// lock. Either way the reply's Size is the version the replica held when
	// the request arrived, so the write took effect exactly when Size <
	// Epoch; a refusal is a reply, not an error.
	KindRaiseVersion
)

func (k Kind) String() string {
	switch k {
	case KindPing:
		return "Ping"
	case KindPutBlock:
		return "PutBlock"
	case KindGetBlock:
		return "GetBlock"
	case KindDeleteBlock:
		return "DeleteBlock"
	case KindBlockSize:
		return "BlockSize"
	case KindFilter:
		return "Filter"
	case KindProject:
		return "Project"
	case KindAggregate:
		return "Aggregate"
	case KindPrepareBlock:
		return "PrepareBlock"
	case KindCommitObject:
		return "CommitObject"
	case KindListBlocks:
		return "ListBlocks"
	case KindBatch:
		return "Batch"
	case KindGroupAgg:
		return "GroupAgg"
	case KindTopK:
		return "TopK"
	case KindRaiseVersion:
		return "RaiseVersion"
	default:
		return "Unknown"
	}
}

// ChunkRef locates a column chunk inside a block on a node — or, with no
// BlockID, inside the request's Data (GroupAgg) — and carries the metadata
// needed to decode it in place.
type ChunkRef struct {
	BlockID string
	// Offset and the metadata's Size give the chunk's range in the block, or
	// in Data.
	Offset uint64
	Type   lpq.Type
	Meta   lpq.ChunkMeta
}

// FilterLeaf is one comparison of a Filter: the chunk it reads, and the
// operator and literal each row of the chunk is compared with.
type FilterLeaf struct {
	Chunk ChunkRef
	Op    sql.CmpOp
	Value sql.Literal
}

// Request is the single message type sent to nodes.
type Request struct {
	Kind Kind

	// DeadlineMicros, when positive, is the caller's remaining deadline
	// budget in microseconds at the moment the request was sent. The budget
	// is relative — never an absolute timestamp — so clock skew between
	// coordinator and node cannot corrupt it. A node measures its own
	// elapsed time against the budget: already-expired work is rejected
	// before any disk read, and batch frames abort between sub-ops at the
	// checkpoint where the budget runs out (see cluster.ErrExpired). 0
	// means no deadline.
	DeadlineMicros int64

	// Block operations.
	BlockID string
	Data    []byte // PutBlock/PrepareBlock payload; GroupAgg's shipped chunks
	Offset  uint64 // GetBlock range start
	Length  uint64 // GetBlock range length (0 = rest of block)
	// CallerVerifies tells a GetBlock that the caller will verify the
	// returned bytes against a checksum recorded in its own metadata (which
	// covers bit rot and in-flight corruption in one pass), so the node may
	// skip its redundant at-rest verification for this read. Callers without
	// an independent checksum must leave it unset.
	CallerVerifies bool

	// Durability fields (PrepareBlock, CommitObject; optional on PutBlock).
	// Object and Epoch tie a block to the object version being written, so
	// commit and orphan reconciliation can reason per attempt; Crc is the
	// CRC32C of Data, letting the node reject corrupted writes and verify
	// the block at rest on later reads. On a RaiseVersion, Epoch is the
	// proposed register version.
	Object string
	Epoch  uint64
	Crc    uint32

	// Pushdown operations.
	Chunk  ChunkRef     // Project/TopK column chunk
	Leaves []FilterLeaf // Filter conjunction, in WHERE order: 1 to MaxBatchOps leaves
	Bitmap []byte       // Project/GroupAgg/TopK row selection (compressed bitmap)
	// A Project or GroupAgg may carry its row group's conjunction in Leaves
	// in place of a Bitmap: the node evaluates it and selects its AND.

	// Grouped-aggregation pushdown (GroupAgg). KeyChunks are the grouping
	// columns' chunks for one row group; ValChunks[i] is the argument chunk
	// of aggregate i (the zero ChunkRef — no BlockID, Meta.Size 0 — for a
	// COUNT, which needs no column); AggKinds[i] is its function. A reference
	// with no BlockID and a nonzero size is a chunk the coordinator shipped
	// from another node: it names Data[Offset:Offset+Meta.Size]. MaxGroups
	// caps the node-side group table — exceeding it fails the op so the
	// coordinator falls back to coordinator-side execution for the row group.
	KeyChunks []ChunkRef
	ValChunks []ChunkRef
	AggKinds  []sql.AggKind
	MaxGroups int

	// Top-k pushdown (TopK; Chunk is the order column's chunk). K is the
	// row budget (<=0 keeps every selected row), Desc the direction, and RG
	// the row group's global index, echoed into the returned TopRows so the
	// coordinator's merge tie-breaks on (rg, row) without re-mapping.
	//
	// RG also tags the sub-ops of a batched filter stage: the coordinator
	// ships one KindBatch frame per node per stage covering every row group,
	// so each Filter sub-op carries the row group its bitmap answers for.
	K    int
	Desc bool
	RG   int32

	// Subs carries the sub-requests of a KindBatch frame, at most
	// MaxBatchOps, none itself a batch — or the blocks of a multi-block
	// KindPrepareBlock frame (ValidatePrepare).
	Subs []Request

	// ctx and land belong to the call carrying the request, not to the
	// message, and are not on the wire: ctx is the caller's context
	// (SetContext), land the windows of the caller's memory a GetBlock's
	// payload is read straight into (LandIn).
	ctx  context.Context
	land [][]byte
}

// SetContext binds r to the context of the call about to carry it. A
// transport stops touching r, and the memory r names (LandIn), before its
// Call returns — at the latest once ctx is done.
func (r *Request) SetContext(ctx context.Context) { r.ctx = ctx }

// Context returns the context r was bound to, or context.Background().
func (r *Request) Context() context.Context {
	if r.ctx == nil {
		return context.Background()
	}
	return r.ctx
}

// LandIn names the windows of the caller's memory a GetBlock's payload is to
// be read into, in order, instead of into a reply frame: a transport that
// reads the payload off a socket (ReadResponse) lands it there when the reply
// carries no error and exactly as many bytes as the windows hold, and the
// payload follows the header (it is inlineMax bytes or more), and records
// that in the response (Response.Landed). Any other reply leaves the windows
// untouched, and its payload is in Data as usual.
func (r *Request) LandIn(windows ...[]byte) { r.land = windows }

// EndCall drops what ties r to the call that carried it — its context and
// the windows of it and its sub-requests — so a request kept afterwards (a
// tap's log, a replay) pins none of its caller's memory.
func (r *Request) EndCall() {
	r.ctx, r.land = nil, nil
	for i := range r.Subs {
		r.Subs[i].land = nil
	}
}

// MaxBatchOps bounds a batch frame's ops (Ops), and a conjunction's leaves. A
// row-group scan batches one op per chunk per node, so the cap comfortably
// exceeds any planner fan-out while keeping a malicious frame from declaring
// an unbounded amount of work.
const MaxBatchOps = 1024

// Ops is the work r counts for toward a frame's MaxBatchOps: its
// conjunction's leaves, or one.
func (r *Request) Ops() int {
	return max(1, len(r.Leaves))
}

// batchable reports whether a kind may appear inside a batch: the data-plane
// reads, and DeleteBlock. PrepareBlock, PutBlock and CommitObject keep their
// own frames so the two-phase write protocol's error handling stays
// per-block. DeleteBlock is the one mutation that needs none: it is
// idempotent, a missing block is not an error, and every caller (rollback,
// previous-epoch GC, Delete, orphan reconciliation) is best effort and leaves
// what a lost frame missed to the reconciler.
func batchable(k Kind) bool {
	switch k {
	case KindGetBlock, KindFilter, KindProject, KindGroupAgg, KindTopK, KindDeleteBlock:
		return true
	}
	return false
}

// ValidateBatch checks a KindBatch request's shape: at least one
// sub-request, their ops (Ops) within MaxBatchOps, and every sub-request of a
// batchable kind (in particular, no nested batches). It returns a description
// of the first violation, or "" when the batch is well-formed.
func ValidateBatch(r *Request) string {
	if r.Kind != KindBatch {
		return "not a batch request"
	}
	if len(r.Subs) == 0 {
		return "empty batch"
	}
	ops := 0
	for i := range r.Subs {
		if !batchable(r.Subs[i].Kind) {
			return "sub-request " + r.Subs[i].Kind.String() + " not batchable"
		}
		ops += r.Subs[i].Ops()
	}
	if ops > MaxBatchOps {
		return "batch exceeds MaxBatchOps"
	}
	return ""
}

// ValidatePrepare checks a multi-block KindPrepareBlock frame's shape: its
// blocks only in Subs (no block of its own), at most MaxBatchOps of them,
// each a bare PrepareBlock, no two with one id. It returns a description of
// the first violation, or "" when the frame is well-formed. A prepare with
// no Subs is a bare one and is not a frame.
func ValidatePrepare(r *Request) string {
	switch {
	case r.Kind != KindPrepareBlock:
		return "not a prepare request"
	case len(r.Subs) == 0:
		return "prepare frame without sub-blocks"
	case len(r.Subs) > MaxBatchOps:
		return "prepare frame exceeds MaxBatchOps"
	case r.BlockID != "" || len(r.Data) != 0:
		return "prepare frame carries a block of its own"
	}
	ids := make(map[string]struct{}, len(r.Subs))
	for i := range r.Subs {
		sub := &r.Subs[i]
		if sub.Kind != KindPrepareBlock || len(sub.Subs) != 0 {
			return "sub-request " + sub.Kind.String() + " in a prepare frame"
		}
		if _, dup := ids[sub.BlockID]; dup {
			return "prepare frame names block " + sub.BlockID + " twice"
		}
		ids[sub.BlockID] = struct{}{}
	}
	return ""
}

// ValidateFrame checks a top-level request that carries Subs, or must: a
// batch (ValidateBatch), or a multi-block prepare (ValidatePrepare).
func ValidateFrame(r *Request) string {
	if r.Kind == KindPrepareBlock {
		return ValidatePrepare(r)
	}
	return ValidateBatch(r)
}

// Cost reports the node-local work a request incurred, used by the
// simulated latency model and by the CPU-utilization accounting (Fig. 14d).
type Cost struct {
	// DiskBytes is the number of bytes read from the node's block store.
	DiskBytes uint64
	// ProcBytes is the number of uncompressed bytes decoded and scanned.
	ProcBytes uint64
}

// Add accumulates another cost.
func (c *Cost) Add(o Cost) {
	c.DiskBytes += o.DiskBytes
	c.ProcBytes += o.ProcBytes
}

// BlockInfo is one block's inventory entry in a ListBlocks reply.
type BlockInfo struct {
	// ID is the block's name on the node.
	ID string
	// Object and Epoch identify the write attempt that produced the block
	// (empty/zero when the node has no durability record for it, e.g. a
	// metadata register block or a block written before the node restarted).
	Object string
	Epoch  uint64
	// Pending reports a prepared-but-uncommitted block.
	Pending bool
	// HasCrc reports whether Crc is a recorded CRC32C of the block.
	HasCrc bool
	Crc    uint32
}

// Response is the single message type returned by nodes.
type Response struct {
	// Err is a non-empty error description on failure.
	Err string
	// Data carries block bytes (GetBlock), plain-encoded projected values
	// (Project), or a compressed bitmap (Filter).
	Data []byte
	// Size is the block size for BlockSize, and the version the register
	// replica held before the request for RaiseVersion. A Project reply of
	// nonzero Size is declined: a reply of Size bytes would outweigh the
	// stored chunk and its conjunction's selection, which Data is instead
	// (empty where an earlier reply of the frame carried it).
	Size uint64
	// Crc is the CRC32C of Data on GetBlock replies — the end-to-end
	// checksum that catches in-flight corruption of a ranged read, where
	// the caller cannot check the whole-block checksum itself.
	Crc uint32
	// Blocks is the node's inventory (ListBlocks).
	Blocks []BlockInfo
	// Matches is the number of selected rows (Filter/Project).
	Matches int
	// Groups holds per-group partial states in deterministic key order
	// (GroupAgg).
	Groups []sql.GroupPartial
	// TopRows holds the row group's local top-k candidates, fully ordered
	// (TopK).
	TopRows []sql.TopRow
	// Cost is the node-local work performed.
	Cost Cost
	// Subs carries the per-op sub-responses of a batch reply, index-aligned
	// with the request's Subs. A sub-op failure sets that sub-response's Err;
	// the outer Err stays empty unless the batch itself was malformed.
	Subs []Response

	// landed is the windows of the request's caller Data was read into
	// instead of a frame (Request.LandIn); Data is then nil.
	landed [][]byte
	// frame and tail are the bufpool buffers a transport read this reply's
	// header and its payloads that did not land into (ReadResponse), which
	// Data and every sub-response's Data alias; nil for a reply that never
	// crossed a socket. Unexported: they are not on the wire.
	frame, tail []byte
}

// Landed returns the windows of the caller's memory this reply's payload was
// read into (Request.LandIn), or nil when it is in Data.
func (r *Response) Landed() [][]byte { return r.landed }

// PayloadBytes is the block bytes, values or bitmap the reply carried, its
// sub-responses' included: what is in Data, or landed in the caller's
// windows instead. It is what a reply moves; WireSize adds the rest.
func (r *Response) PayloadBytes() uint64 {
	n := r.payload()
	for i := range r.Subs {
		n += r.Subs[i].payload()
	}
	return n
}

// payload is the reply's own payload, without its sub-responses'.
func (r *Response) payload() uint64 {
	n := len(r.Data)
	for _, w := range r.landed {
		n += len(w)
	}
	return uint64(n)
}

// Release hands the reply's frame buffers back to bufpool, after which Data —
// and, for a batch reply, the Data of every sub-response: one reply, one
// Release on the outer response — must not be read again. Landed bytes are
// the caller's and are not affected. Releasing is optional and is the
// exception: an unreleased frame is collected like any allocation and never
// reused, so a holder that keeps the bytes (a cache), or cannot tell whether
// someone else still reads them, simply does nothing. Only a consumer that
// has copied out everything it wanted and knows no one else holds the reply
// may release it. A second Release, or one on a reply with no frame (simnet,
// faultnet), is a no-op.
func (r *Response) Release() {
	bufpool.Put(r.frame)
	bufpool.Put(r.tail)
	r.frame, r.tail = nil, nil
}

// reqFixedOverhead approximates per-message framing/header bytes on the
// wire, used by the simulated network accounting.
const fixedOverhead = 64

// WireSize estimates the serialized size of the request.
func (r *Request) WireSize() uint64 {
	n := uint64(fixedOverhead + len(r.BlockID) + len(r.Data) + len(r.Bitmap))
	n += uint64(len(r.Chunk.BlockID) + len(r.Object))
	n += leavesSize(r.Leaves)
	for i := range r.KeyChunks {
		n += uint64(len(r.KeyChunks[i].BlockID) + 32)
	}
	for i := range r.ValChunks {
		n += uint64(len(r.ValChunks[i].BlockID) + 32)
	}
	n += uint64(len(r.AggKinds))
	for i := range r.Subs {
		n += r.Subs[i].WireSize()
		if sharesSelection(r.Subs, i) {
			n = n + backRefSize - uint64(len(r.Subs[i].Bitmap)) - leavesSize(r.Subs[i].Leaves)
		}
	}
	return n
}

// leavesSize is WireSize's estimate of a conjunction's variable bytes.
func leavesSize(leaves []FilterLeaf) uint64 {
	var n uint64
	for i := range leaves {
		n += uint64(len(leaves[i].Chunk.BlockID) + len(leaves[i].Value.S))
	}
	return n
}

// sharesSelection reports whether sub-request i's selection — its Bitmap, or
// its Leaves — is sub-request i-1's own: one row group's selection, built
// once for all its sub-ops, which the wire carries as a back-reference
// (wire.go).
func sharesSelection(subs []Request, i int) bool {
	if i == 0 || len(subs[i].Bitmap) == 0 && len(subs[i].Leaves) == 0 {
		return false
	}
	a, b := &subs[i], &subs[i-1]
	return SameSlice(a.Bitmap, b.Bitmap) && SameSlice(a.Leaves, b.Leaves)
}

// SameSlice reports whether a and b are one slice: both empty, or the same
// elements of the same array.
func SameSlice[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// WireSize estimates the serialized size of the response, landed bytes
// included: they crossed the wire like any other.
func (r *Response) WireSize() uint64 {
	n := uint64(fixedOverhead+len(r.Err)) + r.payload()
	for i := range r.Blocks {
		n += uint64(len(r.Blocks[i].ID) + len(r.Blocks[i].Object) + 16)
	}
	for i := range r.Groups {
		n += GroupPartialWireSize(&r.Groups[i])
	}
	// A TopRow is a literal plus two int32 coordinates.
	for i := range r.TopRows {
		n += uint64(24 + len(r.TopRows[i].Key.S))
	}
	for i := range r.Subs {
		n += r.Subs[i].WireSize()
	}
	return n
}

// GroupPartialWireSize estimates one group partial's serialized size: the
// key literals plus a fixed-size AggState per aggregate. The planner uses
// the same estimate to decide whether pushing partials beats shipping the
// raw chunks.
func GroupPartialWireSize(g *sql.GroupPartial) uint64 {
	n := uint64(8) // Rows
	for i := range g.Key {
		n += uint64(16 + len(g.Key[i].S))
	}
	for i := range g.Aggs {
		n += uint64(48 + len(g.Aggs[i].MinS) + len(g.Aggs[i].MaxS))
	}
	return n
}
