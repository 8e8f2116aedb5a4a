package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"github.com/fusionstore/fusion/internal/fac"
	"github.com/fusionstore/fusion/internal/metakv"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/trace"
)

// PutStats reports how an object was stored.
type PutStats struct {
	// Mode is the layout actually used (FAC may fall back to fixed).
	Mode LayoutMode
	// FellBack reports that the FAC budget was exceeded and fixed-block
	// coding was used instead.
	FellBack bool
	// LayoutTime is the stripe-construction time (the Fig. 16c numerator).
	// When the FAC attempt falls back it includes the fixed-layout pass too.
	LayoutTime time.Duration
	// TotalTime is the wall-clock Put duration.
	TotalTime time.Duration
	// StoredBytes is the total bytes persisted (data + parity).
	StoredBytes uint64
	// OverheadVsOptimal is the storage overhead relative to optimal.
	OverheadVsOptimal float64
	// Stripes is the stripe count.
	Stripes int
	// PeakPipelineBytes is the high-water mark of coordinator buffering the
	// streaming pipeline held at once — the pooled bin/parity arenas of the
	// stripes in flight. The pipeline keeps at most two stripes resident, so
	// this is O(stripe), never O(object).
	PeakPipelineBytes uint64
	// MaxStripeBytes is the largest single stripe's arena footprint (k data
	// bins at capacity plus n−k parity blocks), the unit PeakPipelineBytes
	// is bounded in multiples of.
	MaxStripeBytes uint64
}

// Put stores an lpq analytics object. Under LayoutFAC the coordinator
// parses the object's footer, runs the stripe construction algorithm over
// the column-chunk sizes (never splitting a chunk), erasure-codes each
// stripe and scatters its blocks, falling back to fixed-block coding when
// the storage budget cannot be met (§4.2, §5 "Storing Objects").
func (s *Store) Put(name string, data []byte) (*PutStats, error) {
	return s.PutContext(context.Background(), name, data)
}

// PutContext is Put under a (possibly traced) context. It is a thin wrapper
// over PutReader: in-memory bytes and a streamed source run the identical
// pipeline, so the two entry points produce bit-identical blocks and
// metadata by construction.
func (s *Store) PutContext(ctx context.Context, name string, data []byte) (*PutStats, error) {
	return s.PutReader(ctx, name, bytes.NewReader(data), uint64(len(data)))
}

// PutReader stores an lpq object of exactly size bytes read from r, without
// ever materializing the whole object on the coordinator. The pipeline is
// footer-parse (tail probe) → FAC layout (from footer sizes alone) →
// per-stripe gather + erasure encode → scatter, stripes grouped into rounds
// that fit the largest stripe's arenas, with the gather/encode of round i+1
// overlapped with the scatter of round i, so at most two largest stripes of
// pooled arenas are resident at once.
//
// Bounded memory requires random access (the lpq footer lives at the file
// tail): when r implements io.ReaderAt the body is read stripe by stripe;
// a purely sequential reader is materialized once and fed through the same
// pipeline. The two-phase epoch protocol, rollback on failure, CRCs at
// every layer and cache invalidation are identical to the in-memory path.
// A context already done fails the Put with its own error before any work.
func (s *Store) PutReader(ctx context.Context, name string, r io.Reader, size uint64) (*PutStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp, end := s.beginOp(ctx, "Put")
	defer end()
	start := time.Now()

	src, err := newPutSource(r, size)
	if err != nil {
		return nil, fmt.Errorf("store: reading source for %s: %w", name, err)
	}
	footer, footerSize, err := src.parseFooter()
	if err != nil {
		return nil, fmt.Errorf("store: %s is not a valid lpq object: %w", name, err)
	}
	items, err := buildItemsSized(size, footerSize, footer)
	if err != nil {
		return nil, err
	}
	meta := &ObjectMeta{
		Name:   name,
		Size:   size,
		Footer: footer,
		Items:  items,
	}
	// Reserve the write epoch on a quorum before any block exists. If this
	// attempt dies, the epoch is burned — a retry allocates a higher one, so
	// its blocks never collide with this attempt's debris.
	epoch, err := s.allocEpoch(ctx, sp, name)
	if err != nil {
		return nil, err
	}
	meta.Epoch = epoch
	stats := &PutStats{}

	// Layout selection. The layout span and LayoutTime cover the whole pass
	// — including the fixed-layout fallback when the FAC attempt exceeds the
	// budget — so /debug/fusionz put timings account every construction that
	// actually ran. The plans are derived from footer sizes alone: the whole
	// layout exists before a single body byte is resident.
	mode := s.opts.Layout
	lsp := sp.Child("layout")
	layoutStart := time.Now()
	var plans []stripePlan
	if mode == LayoutFAC {
		sizes := itemSizes(items)
		l, err := fac.ConstructWithBudget(s.opts.Params.N, s.opts.Params.K, sizes, s.opts.StorageBudget)
		switch {
		case err == nil:
			l = fac.GatherRowGroups(l, sizes, itemGroups(items))
			meta.ItemLocs = facLayoutToMeta(l, items)
			plans = facStripePlans(l, items)
		case errors.Is(err, fac.ErrBudgetExceeded):
			mode = LayoutFixed
			stats.FellBack = true
		default:
			stats.LayoutTime = time.Since(layoutStart)
			lsp.End()
			return nil, err
		}
	}
	if mode == LayoutFixed {
		bs := s.fixedBlockSizeFor(size)
		meta.BlockSize = bs
		plans = fixedStripePlans(size, bs, s.opts.Params.K)
	}
	stats.LayoutTime = time.Since(layoutStart)
	lsp.End()
	meta.Mode = mode

	// Every block a node accepts is recorded so a failure anywhere before
	// the commit point can roll the whole attempt back instead of stranding
	// blocks on the nodes that did accept the write. A node that is down
	// keeps its debris for the orphan reconciler (the attempt's epoch can
	// never commit, so the debris is unreachable either way).
	var placed []placedBlock
	if err := s.streamStripes(ctx, sp, meta, src, plans, stats, &placed); err != nil {
		s.dropBlocks(sp, placed)
		return nil, err
	}
	// Overhead relative to the optimal footprint size × n/k, from the bytes
	// actually persisted (data blocks are stored unpadded in both modes;
	// parity blocks are full-capacity).
	optimal := float64(size) * float64(s.opts.Params.N) / float64(s.opts.Params.K)
	if optimal > 0 {
		stats.OverheadVsOptimal = float64(stats.StoredBytes)/optimal - 1
	}
	stats.Mode = mode
	stats.Stripes = len(meta.Stripes)

	// Cancellation checkpoint at the commit point: a Put whose caller gave
	// up before the metadata publish rolls the attempt back instead of
	// committing an object nobody is waiting for. Past this check the
	// publish and cleanup run to completion, deaf to the caller's context.
	if err := ctx.Err(); err != nil {
		s.dropBlocks(sp, placed)
		return nil, err
	}
	ctx = context.WithoutCancel(ctx)
	// Overwrites are fresh inserts (§5): new blocks are written under a
	// fresh epoch, the metadata swap publishes them, and only then is the
	// previous version garbage-collected. The previous version is resolved
	// from the metadata quorum here at the commit point — never from the
	// coordinator cache. A cache-served (possibly superseded) prev would let
	// two concurrent overwriters publish the same Version+1 and leave the
	// real previous epoch's blocks stranded while re-deleting long-gone
	// ones; the quorum read pins prev to the version this publish actually
	// supersedes. Only the register saying "not found" makes this a fresh
	// insert: a quorum read that failed says nothing about a previous version,
	// and publishing over it would reset Version and strand its blocks.
	prev, prevVersion, err := s.metaQuorumVersion(ctx, sp, name)
	switch {
	case err == nil:
		meta.Version = prev.Version + 1
	case !errors.Is(err, metakv.ErrNotFound):
		s.dropBlocks(sp, placed)
		return nil, fmt.Errorf("store: resolving the previous version of %q: %w", name, err)
	}

	// The metadata publish is the commit point: once the new metadata lands
	// on a replica majority, every subsequent read observes this epoch's
	// blocks. Before it, the attempt is invisible and fully rolled back on
	// failure; after it, the attempt is durable and the remaining steps
	// (commit fan-out, previous-version GC) are best-effort — orphan
	// reconciliation finishes either if the coordinator dies here.
	rsp := sp.Child("replicate-meta")
	err = s.replicateMeta(ctx, rsp, meta, prevVersion+1)
	rsp.End()
	if err != nil {
		s.dropBlocks(sp, placed)
		return nil, err
	}
	// Refresh the coordinator cache at the commit point, before the GC of
	// the previous version can run: the meta tier flips to the new epoch
	// and every data entry of older epochs is dropped, so a cached reader
	// can never be handed pre-overwrite bytes after this line. (Entries
	// are epoch-keyed anyway — this ordering makes the invalidation
	// prompt, the keying makes it safe.)
	s.cache.PutMeta(name, meta)
	s.cache.InvalidateObject(meta.Name, meta.Epoch)
	s.commitBlocks(sp, meta.Name, meta.Epoch, placed)
	if prev != nil && prev.Epoch != meta.Epoch {
		s.dropBlocks(sp, prev.blocks())
	}
	stats.TotalTime = time.Since(start)
	return stats, nil
}

// fixedBlockSizeFor resolves the fixed-layout block size for an object.
// Objects smaller than one full stripe shrink the block size so the object
// still spreads over k shards (MinIO-style), instead of paying for
// full-size parity blocks.
func (s *Store) fixedBlockSizeFor(size uint64) uint64 {
	k := uint64(s.opts.Params.K)
	bs := s.opts.FixedBlockSize
	if perShard := (size + k - 1) / k; perShard < bs {
		bs = perShard
		if bs == 0 {
			bs = 1
		}
	}
	return bs
}

// placedBlock names one stored block and the node holding it: what a Put
// attempt records for rollback, and what every block removal is planned from.
type placedBlock struct {
	node int
	id   string
}

// dropBlocks is the one way the coordinator removes blocks — rollback of a
// failed attempt, GC of a superseded epoch, Delete, orphan reconciliation:
// a DeleteBlock sub-request per block, shipped by scatter as one frame per
// node, charged to sp. Best effort and past caller cancellation: what a lost
// frame or a down node keeps is an orphan for the reconciler.
func (s *Store) dropBlocks(sp *trace.Span, blocks []placedBlock) {
	reqs := make([]nodeReq, len(blocks))
	for i, b := range blocks {
		reqs[i] = nodeReq{b.node, rpc.Request{Kind: rpc.KindDeleteBlock, BlockID: b.id}}
	}
	s.scatter(context.Background(), sp, reqs)
}

// commitBlocks sends CommitObject(object, epoch) to every node holding one of
// blocks, concurrently, flipping them pending→committed. Best effort,
// idempotent and past caller cancellation: the metadata publish already made
// the write durable, and the reconciler re-commits any node this misses.
func (s *Store) commitBlocks(sp *trace.Span, object string, epoch uint64, blocks []placedBlock) {
	nodes := make([]int, len(blocks))
	for i, b := range blocks {
		nodes[i] = b.node
	}
	slices.Sort(nodes)
	nodes = slices.Compact(nodes)
	csp := sp.Child("commit-blocks")
	defer csp.End()
	runTasks(s.queryWorkers(), len(nodes), func(i int) {
		_, _ = s.call(context.Background(), csp, nodes[i], &rpc.Request{
			Kind: rpc.KindCommitObject, Object: object, Epoch: epoch,
		})
	})
}

// placeRound writes the blocks of a round's stripes, each stripe's n blocks
// to n distinct nodes recorded in its sm.Nodes, as PrepareBlock (phase one):
// the node verifies each payload's CRC, stores the block tagged pending under
// (object, epoch), and serves it like any other block; the epoch only
// becomes reachable at the metadata commit point. One candidate permutation
// is drawn per stripe, in stripe order, and aff orders it (affinity.order):
// data bins beside their row groups, then parity and spares as drawn. A
// node's blocks of the whole round travel as one frame, the frames of all
// nodes at once. A block its first choice refused (down or full, or its
// frame lost) is then offered bare to its own stripe's spares
// candidates[n:] in order — Put succeeds as long as n healthy nodes exist.
// Every block a node accepted is appended to tracker for rollback, also when
// a sibling failed.
func (s *Store) placeRound(ctx context.Context, sp *trace.Span, meta *ObjectMeta, aff *affinity, round []*stripeJob, tracker *[]placedBlock) error {
	ssp := sp.Child("place-stripe")
	defer ssp.End()
	type slot struct{ stripe, j int } // block j of round[stripe]
	candidates := make([][]int, len(round))
	errs := make([][]error, len(round))
	frames := make(map[int][]slot)
	var nodes []int // in order of first appearance
	for i, job := range round {
		candidates[i] = aff.order(job.si, s.nodeOrder())
		copy(job.sm.Nodes, candidates[i])
		aff.count(job.si, job.sm.Nodes, 1)
		errs[i] = make([]error, len(job.sm.Nodes))
		for j, node := range job.sm.Nodes {
			if frames[node] == nil {
				nodes = append(nodes, node)
			}
			frames[node] = append(frames[node], slot{i, j})
		}
	}
	prepare := func(job *stripeJob, j int) rpc.Request {
		return rpc.Request{
			Kind: rpc.KindPrepareBlock, BlockID: job.sm.BlockIDs[j], Data: job.blocks[j],
			Object: meta.Name, Epoch: meta.Epoch, Crc: job.sm.Checksums[j],
		}
	}
	runTasks(s.queryWorkers(), len(nodes), func(x int) {
		slots := frames[nodes[x]]
		blocks := make([]rpc.Request, len(slots))
		for i, sl := range slots {
			blocks[i] = prepare(round[sl.stripe], sl.j)
		}
		for i, err := range s.prepareFrame(ctx, ssp, nodes[x], blocks) {
			errs[slots[i].stripe][slots[i].j] = err
		}
	})
	var failed error
	for i, job := range round {
		sm, cands := &job.sm, candidates[i]
		n := len(sm.Nodes)
		spare := n
		aff.count(job.si, sm.Nodes, -1) // recounted below, on the spares that took over
		for j := 0; j < n && failed == nil; j++ {
			for errs[i][j] != nil && spare < len(cands) && ctxErr(ctx) == nil {
				sm.Nodes[j] = cands[spare]
				spare++
				errs[i][j] = s.prepareFrame(ctx, ssp, sm.Nodes[j], []rpc.Request{prepare(job, j)})[0]
			}
			// A cancelled or expired Put surfaces the context error. Otherwise
			// a stripe needs n distinct healthy nodes (no degraded writes):
			// running out of candidates is the write-side "too many failures",
			// the same sentinel degraded reads exhaust into.
			if errs[i][j] != nil {
				if failed = ctxErr(ctx); failed == nil {
					failed = fmt.Errorf("%w: stripe %d block %d: no healthy node left (%d candidates): %v",
						ErrTooManyFailures, job.si, j, len(cands), errs[i][j])
				}
			}
		}
		aff.count(job.si, sm.Nodes, 1)
		for j, err := range errs[i] {
			if err == nil {
				*tracker = append(*tracker, placedBlock{node: sm.Nodes[j], id: sm.BlockIDs[j]})
			}
		}
	}
	return failed
}

// affinity is a Put's row-group-affine placement: the chunks each data bin
// holds, per row group, and a running tally of the chunks of each row group,
// and of their bytes, that the Put's stripes so far placed on each node.
// Under the fixed layout no bin holds a chunk, every score and load is 0, and
// order returns the permutation as drawn.
type affinity struct {
	bins  [][][]rgChunks // stripe → data bin → its chunks, by row group
	size  [][]uint64     // stripe → data bin → its chunks' bytes
	tally [][]int        // node → row group → chunks placed there
	load  []uint64       // node → chunk bytes placed there
}

// rgChunks is how many chunks of row group rg a bin holds.
type rgChunks struct{ rg, n int }

// newAffinity indexes meta's chunk locations by stripe and bin: a FAC
// layout's stripes stripes of k bins over nodes nodes.
func newAffinity(meta *ObjectMeta, stripes, k, nodes int) *affinity {
	a := &affinity{bins: make([][][]rgChunks, stripes), size: make([][]uint64, stripes),
		tally: make([][]int, nodes), load: make([]uint64, nodes)}
	for si := range a.bins {
		a.bins[si] = make([][]rgChunks, k)
		a.size[si] = make([]uint64, k)
	}
	if meta.ItemLocs == nil {
		return a
	}
	for node := range a.tally {
		a.tally[node] = make([]int, len(meta.Footer.RowGroups))
	}
	// Items are rg-major, so a bin's chunks arrive grouped by row group.
	for i, it := range meta.Items {
		if it.Kind != ItemChunk {
			continue
		}
		loc := meta.ItemLocs[i]
		a.size[loc.Stripe][loc.Bin] += it.Size
		bin := &a.bins[loc.Stripe][loc.Bin]
		if last := len(*bin) - 1; last >= 0 && (*bin)[last].rg == it.RG {
			(*bin)[last].n++
		} else {
			*bin = append(*bin, rgChunks{it.RG, 1})
		}
	}
	return a
}

// score is how many chunks placed on node share a row group with bin j of
// stripe si.
func (a *affinity) score(si, j, node int) int {
	n := 0
	for _, c := range a.bins[si][j] {
		n += a.tally[node][c.rg]
	}
	return n
}

// order returns stripe si's candidate nodes from its permutation perm: the
// k data bins first, each on the node it was paired with, then the rest of
// perm in its order — the parity blocks' nodes, then the spares. Pairs are
// taken greedily, the (bin, free node) of highest score first, a tie to the
// node holding fewer of the Put's chunk bytes, then to the earlier bin and
// then to the node earlier in perm: a row group's first bins, which no node
// holds yet, go to the emptiest nodes, so row-group-pure bins do not pile up
// beside each other. With every score and load 0 that is perm itself.
func (a *affinity) order(si int, perm []int) []int {
	k, n := len(a.bins[si]), len(perm)
	scores := make([]int, k*n) // bin j on perm[p] at j*n+p; -1 once either is taken
	for j := range k {
		for p, node := range perm {
			scores[j*n+p] = a.score(si, j, node)
		}
	}
	out := make([]int, k, n)
	taken := make([]bool, n)
	for range k {
		at := 0
		for i, sc := range scores {
			if sc > scores[at] || sc >= 0 && sc == scores[at] && a.load[perm[i%n]] < a.load[perm[at%n]] {
				at = i
			}
		}
		bin, p := at/n, at%n
		out[bin], taken[p] = perm[p], true
		for i := range n {
			scores[bin*n+i] = -1
		}
		for j := range k {
			scores[j*n+p] = -1
		}
	}
	for p, node := range perm {
		if !taken[p] {
			out = append(out, node)
		}
	}
	return out
}

// count adds sign times stripe si's chunks, and their bytes, to the tallies
// of the nodes holding its data bins.
func (a *affinity) count(si int, nodes []int, sign int) {
	for j, bin := range a.bins[si] {
		a.load[nodes[j]] += uint64(sign) * a.size[si][j] // wraps to a subtraction for sign -1
		for _, c := range bin {
			a.tally[nodes[j]][c.rg] += sign * c.n
		}
	}
}

// prepareFrame sends one node's prepares as one frame — bare when there is
// just one — and returns each block's outcome: the frame's error when the
// frame itself failed (every block in it is refused), else the block's own.
func (s *Store) prepareFrame(ctx context.Context, sp *trace.Span, node int, blocks []rpc.Request) []error {
	req := &blocks[0]
	if len(blocks) > 1 {
		req = &rpc.Request{Kind: rpc.KindPrepareBlock, Subs: blocks}
	}
	resp, err := s.callChecked(ctx, sp, node, req)
	errs := make([]error, len(blocks))
	for i := range errs {
		switch {
		case err != nil:
			errs[i] = err
		case len(blocks) == 1:
		case len(resp.Subs) != len(blocks):
			errs[i] = fmt.Errorf("store: prepare frame to node %d answered %d of %d blocks",
				node, len(resp.Subs), len(blocks))
		case resp.Subs[i].Err != "":
			errs[i] = fmt.Errorf("cluster: node %d: %s", node, resp.Subs[i].Err)
		}
	}
	return errs
}

// replicateMeta publishes the object metadata through the k+1-replica
// quorum register (§5) at the given register version: the write lands on a
// majority, so every subsequent quorum read observes it even if a minority
// of replicas missed it. The version is one above what the Put's
// commit-point read returned (metaQuorumVersion), so the publish is one
// quorum round and needs no read of its own.
func (s *Store) replicateMeta(ctx context.Context, sp *trace.Span, meta *ObjectMeta, version uint64) error {
	enc, err := EncodeMeta(meta)
	if err != nil {
		return err
	}
	kv, err := s.metaKV(ctx, sp, meta.Name)
	if err != nil {
		return err
	}
	if err := kv.PutAt(metaKey(meta.Name), version, enc); err != nil {
		return fmt.Errorf("store: publishing metadata for %q: %w", meta.Name, err)
	}
	return nil
}

// Meta returns the object's metadata, performing a quorum read (with read
// repair of stale replicas) when it is not cached.
func (s *Store) Meta(name string) (*ObjectMeta, error) {
	return s.meta(context.Background(), nil, name)
}

// meta is Meta under an operation's context, its quorum read charged to sp.
func (s *Store) meta(ctx context.Context, sp *trace.Span, name string) (*ObjectMeta, error) {
	if v, ok := s.cache.GetMeta(name); ok {
		return v.(*ObjectMeta), nil
	}
	m, err := s.metaQuorum(ctx, sp, name)
	if err != nil {
		return nil, fmt.Errorf("store: object %q: %w", name, err)
	}
	s.cache.PutMeta(name, m)
	return m, nil
}

// Delete removes an object's blocks and metadata replicas. The quorum is
// consulted directly — deleting from a cached (possibly superseded) view
// would miss the blocks of a newer epoch written through another
// coordinator, stranding them as orphans.
func (s *Store) Delete(name string) error {
	return s.DeleteContext(context.Background(), name)
}

// DeleteContext is Delete under a context. Cancellation is observed before
// any destructive step; once block deletion has begun it runs to completion
// (a half-cancelled delete would only strand orphans for the reconciler).
func (s *Store) DeleteContext(ctx context.Context, name string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	sp, end := s.beginOp(ctx, "Delete")
	defer end()
	meta, err := s.metaQuorum(ctx, sp, name)
	if err != nil {
		return fmt.Errorf("store: object %q: %w", name, err)
	}
	// The metadata goes before the blocks, as a Put publishes before its GC.
	// A repair write whose closing read still found the object then landed
	// before this drop, which removes it; one whose read came later removes
	// its block itself (repairBlock).
	if kv, kerr := s.metaKV(ctx, sp, name); kerr == nil {
		_ = kv.Delete(metaKey(name)) // best effort; the blocks go either way
	}
	s.dropBlocks(sp, meta.blocks())
	// Tombstone the cache: drop the meta entry and every data entry of
	// every epoch, so no reader can be served bytes of a deleted object.
	s.cache.DeleteMeta(name)
	s.cache.InvalidateObject(name, 0)
	return nil
}
