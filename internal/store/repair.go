package store

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/metakv"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/trace"
)

// repairItem names one block to rebuild. Epoch pins the object version the
// block was found lost at: if the object is overwritten (or deleted) before
// the block is rewritten, the item is stale — its blocks are garbage-collected
// or about to be — and the rewrite is dropped.
type repairItem struct {
	Object string
	Epoch  uint64
	Stripe int
	Block  int
}

// errStaleRepair marks a repair item whose object was deleted or
// overwritten after its block was found lost: its blocks are (or are about
// to be) garbage, so the repair is dropped, not retried.
var errStaleRepair = errors.New("store: repair item superseded or deleted")

// repairBlock is the one writer of a rebuilt block, for Scrub and RepairNode
// alike. It resolves the object by quorum, never from the cache, and drops an
// item whose epoch has moved: rewriting a superseded epoch would bring back
// blocks its GC removed. It then rebuilds the block from any k
// survivors, checks it against the checksum recorded at write time (a repair
// must never replace rot with different garbage), writes it committed to its
// home node and drops any cached copy. Last it resolves again: an overwrite or
// Delete that published between the two reads may have collected the epoch
// before the write landed, so the block just written is removed. A publish
// after the second read is followed by its writer's own GC. If the second read
// fails, the write stands and the error is returned. A moved epoch at either
// read is errStaleRepair. The op's span is a child of parent.
func (s *Store) repairBlock(ctx context.Context, parent *trace.Span, it repairItem) error {
	sp, end := s.beginOp(trace.NewContext(ctx, parent), "repair.block")
	defer end()
	meta, err := s.resolveRepair(ctx, sp, it)
	if err != nil {
		return err
	}
	if it.Stripe < 0 || it.Stripe >= len(meta.Stripes) || it.Block < 0 || it.Block >= s.opts.Params.N {
		return fmt.Errorf("store: stripe %d block %d out of range", it.Stripe, it.Block)
	}
	block, err := s.reconstructBlock(ctx, sp, meta, it.Stripe, it.Block)
	if err != nil {
		return err
	}
	st := &meta.Stripes[it.Stripe]
	crc := cluster.Checksum(block)
	if crc != st.Checksums[it.Block] {
		return fmt.Errorf("store: rebuilt block %s failed checksum verification", st.BlockIDs[it.Block])
	}
	written := placedBlock{node: st.Nodes[it.Block], id: st.BlockIDs[it.Block]}
	if _, err := s.callChecked(ctx, sp, written.node, &rpc.Request{
		Kind: rpc.KindPutBlock, BlockID: written.id, Data: block,
		Object: meta.Name, Epoch: meta.Epoch, Crc: crc,
	}); err != nil {
		return err
	}
	s.cache.Invalidate(blockKeyOf(meta, it.Stripe, it.Block))
	if _, err = s.resolveRepair(ctx, sp, it); errors.Is(err, errStaleRepair) {
		s.dropBlocks(sp, []placedBlock{written})
	}
	return err
}

// resolveRepair reads an item's object from the metadata quorum, failing with
// errStaleRepair when the object is gone or no longer at the item's epoch.
func (s *Store) resolveRepair(ctx context.Context, sp *trace.Span, it repairItem) (*ObjectMeta, error) {
	meta, err := s.metaQuorum(ctx, sp, it.Object)
	switch {
	case errors.Is(err, metakv.ErrNotFound):
		return nil, fmt.Errorf("%w: object %q deleted", errStaleRepair, it.Object)
	case err != nil:
		return nil, err
	case meta.Epoch != it.Epoch:
		return nil, fmt.Errorf("%w: object %q now at epoch %d, block lost at %d",
			errStaleRepair, it.Object, meta.Epoch, it.Epoch)
	}
	return meta, nil
}

// DiscoverObjects returns every object name any reachable node holds
// metadata for, by scanning node inventories for metadata-register blocks.
// Unlike Objects (this coordinator's cache), discovery sees objects written
// through other coordinators — a freshly started repair tool has an empty
// cache but still must find everything. The scan's calls are charged to ctx's
// span, and a done ctx ends it with the context's error.
func (s *Store) DiscoverObjects(ctx context.Context) ([]string, error) {
	sp := trace.FromContext(ctx)
	names := map[string]bool{}
	answered := 0
	for node := 0; node < s.client.NumNodes(); node++ {
		resp, err := s.call(ctx, sp, node, &rpc.Request{Kind: rpc.KindListBlocks})
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, fmt.Errorf("store: inventory scan: %w", ctxErr)
		}
		if err != nil || resp.Err != "" {
			continue
		}
		answered++
		for _, b := range resp.Blocks {
			if name, ok := strings.CutPrefix(b.ID, "kv/meta/"); ok && name != "" {
				names[name] = true
			}
		}
	}
	if answered == 0 {
		return nil, fmt.Errorf("store: no node answered inventory scan")
	}
	out := make([]string, 0, len(names))
	for n := range names {
		out = append(out, n)
	}
	sort.Strings(out)
	return out, nil
}

// ScrubAllReport aggregates a cluster-wide scrub pass.
type ScrubAllReport struct {
	// Objects is the number of objects scrubbed.
	Objects int
	// Reports holds each object's scrub report.
	Reports map[string]*ScrubReport
	// Errors holds per-object scrub failures; the pass continues past them.
	Errors map[string]string
}

// Totals sums the per-object reports.
func (r *ScrubAllReport) Totals() ScrubReport {
	var t ScrubReport
	for _, rep := range r.Reports {
		t.Stripes += rep.Stripes
		t.MissingBlocks += rep.MissingBlocks
		t.CorruptStripes += rep.CorruptStripes
		t.ChecksumFailures += rep.ChecksumFailures
		t.Repaired += rep.Repaired
	}
	return t
}

// ScrubAll scrubs every discoverable object in the cluster. Per-object
// failures are reported, not fatal; a done ctx ends the pass with the
// context's error.
func (s *Store) ScrubAll(ctx context.Context, opts ScrubOptions) (*ScrubAllReport, error) {
	sp, end := s.beginOp(ctx, "repair.scruball")
	defer end()
	ctx = trace.NewContext(ctx, sp)
	names, err := s.DiscoverObjects(ctx)
	if err != nil {
		return nil, err
	}
	report := &ScrubAllReport{
		Reports: make(map[string]*ScrubReport),
		Errors:  make(map[string]string),
	}
	for _, name := range names {
		rep, err := s.Scrub(ctx, name, opts)
		if rep != nil {
			report.Reports[name] = rep
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			return report, fmt.Errorf("store: scrubbing the cluster: %w", ctxErr)
		}
		if err != nil {
			report.Errors[name] = err.Error()
			continue
		}
		report.Objects++
	}
	return report, nil
}

// RepairNodeAll sweeps RepairNode across every discoverable object — the
// catch-up a node gets after rejoining the cluster, restoring each block
// and metadata replica it missed while down. Returns total blocks/replicas
// repaired. A done ctx ends the sweep with the context's error.
func (s *Store) RepairNodeAll(ctx context.Context, node int) (int, error) {
	sp, end := s.beginOp(ctx, "repair.node")
	defer end()
	ctx = trace.NewContext(ctx, sp)
	names, err := s.DiscoverObjects(ctx)
	if err != nil {
		return 0, err
	}
	total := 0
	var firstErr error
	for _, name := range names {
		n, err := s.RepairNode(ctx, name, node)
		total += n
		if ctxErr := ctx.Err(); ctxErr != nil {
			return total, fmt.Errorf("store: repairing node %d: %w", node, ctxErr)
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("store: repairing node %d for %q: %w", node, name, err)
		}
	}
	return total, firstErr
}

// ReconcileReport summarizes an orphan reconciliation pass.
type ReconcileReport struct {
	// Scanned is the number of non-register blocks examined.
	Scanned int
	// Live is the number of blocks belonging to their object's committed
	// epoch.
	Live int
	// Committed is the number of half-committed blocks (pending at the
	// committed epoch) this pass flipped to committed.
	Committed int
	// Deleted is the number of orphaned blocks garbage-collected (debris of
	// failed or superseded write attempts).
	Deleted int
	// Skipped is the number of pending blocks left alone because they may
	// belong to an in-flight Put (latest allocated epoch, non-force mode).
	Skipped int
	// Unknown is the number of blocks whose name didn't parse; they are
	// never touched.
	Unknown int
}

// ReconcileOrphans scans every node's block inventory and resolves the
// debris a crashed coordinator can leave behind:
//
//   - A pending block of an object's committed epoch is a half-commit (the
//     coordinator died between the metadata publish and the commit
//     fan-out): finish the commit.
//   - A block of any other epoch is unreachable garbage — a failed
//     attempt, a crashed attempt that never committed, or a superseded
//     version whose GC was cut short: delete it. Exception: pending blocks
//     at the object's latest *allocated* epoch may be a Put in flight
//     right now, so they are skipped unless force is set (force is for
//     quiesced clusters — admin tools and tests).
//
// Blocks that don't parse as object blocks (including the metadata
// register's kv/ blocks) are never touched. A done ctx ends the scan with the
// context's error before anything is committed or deleted: a metadata read the
// context cut short must not make a live block look like debris.
func (s *Store) ReconcileOrphans(ctx context.Context, force bool) (*ReconcileReport, error) {
	sp, end := s.beginOp(ctx, "repair.reconcile")
	defer end()
	report := &ReconcileReport{}
	// Committed epoch per object, resolved lazily; ok=false means the
	// object has no committed metadata at all.
	type objState struct {
		epoch     uint64
		committed bool
		head      uint64 // latest allocated epoch (non-force guard)
	}
	states := map[string]*objState{}
	stateFor := func(object string) *objState {
		if st, ok := states[object]; ok {
			return st
		}
		st := &objState{}
		if meta, err := s.metaQuorum(ctx, sp, object); err == nil {
			st.epoch, st.committed = meta.Epoch, true
		}
		if !force {
			if kv, err := s.metaKV(ctx, sp, object); err == nil {
				if head, err := kv.Head(epochKey(object)); err == nil {
					st.head = head
				}
			}
		}
		states[object] = st
		return st
	}
	// The scan only decides; what it finds goes out afterwards through the
	// write side's two fan-outs: one delete frame per node, one CommitObject
	// per node holding a half-committed block.
	var orphans []placedBlock
	halfCommits := map[string][]placedBlock{} // by object; the epoch is its committed one
	answered := 0
	for node := 0; node < s.client.NumNodes(); node++ {
		resp, err := s.call(ctx, sp, node, &rpc.Request{Kind: rpc.KindListBlocks})
		if err != nil || resp.Err != "" {
			continue
		}
		answered++
		for _, b := range resp.Blocks {
			if strings.HasPrefix(b.ID, registerBlocks) {
				continue // metadata/epoch register blocks
			}
			object, epoch, _, _, ok := parseBlockID(b.ID)
			if !ok {
				report.Unknown++
				continue
			}
			report.Scanned++
			st := stateFor(object)
			if st.committed && epoch == st.epoch {
				report.Live++
				if b.Pending {
					// Half-commit: the metadata publish made this epoch
					// durable, the per-node commit never arrived.
					halfCommits[object] = append(halfCommits[object], placedBlock{node: node, id: b.ID})
					report.Committed++
				}
				continue
			}
			if !force && b.Pending && epoch >= st.head && st.head > 0 {
				// Possibly a Put scattering blocks right now: its epoch is
				// the newest allocated and nothing newer exists. Leave it
				// for a later pass (or force).
				report.Skipped++
				continue
			}
			if !force && !st.committed && st.head == 0 {
				// No metadata and no epoch register answered — too little
				// information to distinguish debris from an unreachable
				// object; touch nothing.
				report.Skipped++
				continue
			}
			orphans = append(orphans, placedBlock{node: node, id: b.ID})
			report.Deleted++
		}
	}
	if err := ctx.Err(); err != nil {
		return report, fmt.Errorf("store: reconciling orphans: %w", err)
	}
	if answered == 0 {
		return report, fmt.Errorf("store: no node answered inventory scan")
	}
	for object, blocks := range halfCommits {
		s.commitBlocks(sp, object, states[object].epoch, blocks)
	}
	s.dropBlocks(sp, orphans)
	return report, nil
}

// metaQuorum reads an object's metadata from the quorum register without
// consulting or filling the coordinator cache — reconciliation must see the
// committed truth, not a stale cached epoch.
func (s *Store) metaQuorum(ctx context.Context, sp *trace.Span, name string) (*ObjectMeta, error) {
	meta, _, err := s.metaQuorumVersion(ctx, sp, name)
	return meta, err
}

// metaQuorumVersion is metaQuorum that also returns the register version the
// metadata was read at, which a Put's publish supersedes (replicateMeta).
func (s *Store) metaQuorumVersion(ctx context.Context, sp *trace.Span, name string) (*ObjectMeta, uint64, error) {
	kv, err := s.metaKV(ctx, sp, name)
	if err != nil {
		return nil, 0, err
	}
	enc, version, err := kv.Get(metaKey(name))
	if err != nil {
		return nil, 0, err
	}
	meta, err := DecodeMeta(enc, s.opts.Params)
	return meta, version, err
}
