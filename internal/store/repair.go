package store

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/metakv"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/trace"
)

// RepairConfig paces the background repair manager.
type RepairConfig struct {
	// Rate is the minimum spacing between queued repairs the manager
	// processes, bounding the disk/network bandwidth recovery steals from
	// foreground traffic. <= 0 applies the default (10ms).
	Rate time.Duration
	// HeartbeatEvery is the node health probe period; heartbeats feed the
	// circuit breaker and detect node rejoins. <= 0 applies the default
	// (250ms).
	HeartbeatEvery time.Duration
	// ScrubEvery is the continuous background scrub period (a full
	// ScrubAll pass per tick). 0 disables the scrub loop.
	ScrubEvery time.Duration
	// ReconcileEvery is the orphan reconciliation period. 0 disables the
	// reconcile loop.
	ReconcileEvery time.Duration
}

func (c RepairConfig) withDefaults() RepairConfig {
	if c.Rate <= 0 {
		c.Rate = 10 * time.Millisecond
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 250 * time.Millisecond
	}
	return c
}

// RepairItem identifies one block needing repair. Epoch pins the object
// version the failure was observed at: if the object is overwritten (or
// deleted) before the block is rewritten, the item is stale — its blocks
// are garbage-collected or about to be — and is dropped rather than
// retried.
type RepairItem struct {
	Object string
	Epoch  uint64
	Stripe int
	Block  int
}

// RepairStats is a snapshot of the repair queue's counters.
type RepairStats struct {
	// QueueDepth is the number of items currently queued.
	QueueDepth int
	// Enqueued counts accepted enqueues (deduplicated re-enqueues of a
	// queued item are not counted again).
	Enqueued uint64
	// Dropped counts enqueues rejected by the queue bound.
	Dropped uint64
	// Processed counts repairs completed successfully.
	Processed uint64
	// Failed counts repairs that errored (the item is re-queued unless the
	// queue is full).
	Failed uint64
	// Stale counts items dropped because their object was deleted or
	// superseded by a newer epoch between enqueue and processing. Stale
	// items are discarded, never re-queued.
	Stale uint64
}

// repairQueue is a bounded FIFO of blocks to repair, deduplicating items
// already queued: the read path enqueues on every checksum failure, and a
// hot corrupted block would otherwise flood the queue before the first
// repair lands.
type repairQueue struct {
	mu     sync.Mutex
	limit  int
	items  []RepairItem
	queued map[RepairItem]bool
	stats  RepairStats
}

// repairQueueLimit caps a store's repair queue; further enqueues are dropped
// (and counted) until the queue drains.
const repairQueueLimit = 1024

func newRepairQueue(limit int) *repairQueue {
	return &repairQueue{limit: limit, queued: make(map[RepairItem]bool)}
}

// push enqueues an item, reporting whether it was accepted (false for both
// duplicates and a full queue; only the latter counts as a drop).
func (q *repairQueue) push(it RepairItem) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.queued[it] {
		return false
	}
	if len(q.items) >= q.limit {
		q.stats.Dropped++
		return false
	}
	q.items = append(q.items, it)
	q.queued[it] = true
	q.stats.Enqueued++
	return true
}

// pop dequeues the oldest item.
func (q *repairQueue) pop() (RepairItem, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.items) == 0 {
		return RepairItem{}, false
	}
	it := q.items[0]
	q.items = q.items[1:]
	delete(q.queued, it)
	return it, true
}

func (q *repairQueue) done(ok bool) {
	q.mu.Lock()
	if ok {
		q.stats.Processed++
	} else {
		q.stats.Failed++
	}
	q.mu.Unlock()
}

func (q *repairQueue) stale() {
	q.mu.Lock()
	q.stats.Stale++
	q.mu.Unlock()
}

func (q *repairQueue) snapshot() RepairStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	s := q.stats
	s.QueueDepth = len(q.items)
	return s
}

// enqueueRepair queues a block for background repair. Safe from any
// goroutine; duplicates of an already-queued block are absorbed.
func (s *Store) enqueueRepair(it RepairItem) { s.repairs.push(it) }

// RepairStats returns the repair queue's counters.
func (s *Store) RepairStats() RepairStats { return s.repairs.snapshot() }

// errStaleRepair marks a repair item whose object was deleted or
// overwritten after its block was found lost: its blocks are (or are about
// to be) garbage, so the repair is dropped, not retried.
var errStaleRepair = errors.New("store: repair item superseded or deleted")

// ProcessRepairs synchronously drains up to max queued repairs (max <= 0
// means the whole queue) and returns how many blocks were rewritten. A
// failed repair is re-queued for a later pass; a stale one (object deleted
// or superseded since enqueue) is dropped and counted, never re-queued —
// re-queuing it would retry forever against blocks that no longer exist.
// This is the deterministic entry the repair manager's worker loop — and
// the tests — drive.
func (s *Store) ProcessRepairs(max int) (int, error) {
	if max <= 0 {
		max = s.repairs.snapshot().QueueDepth
	}
	processed := 0
	var firstErr error
	for i := 0; i < max; i++ {
		it, ok := s.repairs.pop()
		if !ok {
			break
		}
		if err := s.repairBlock(context.Background(), nil, it); err != nil {
			if errors.Is(err, errStaleRepair) {
				s.repairs.stale()
				continue
			}
			s.repairs.done(false)
			s.repairs.push(it)
			if firstErr == nil {
				firstErr = fmt.Errorf("store: repairing %s stripe %d block %d: %w",
					it.Object, it.Stripe, it.Block, err)
			}
			continue
		}
		s.repairs.done(true)
		processed++
	}
	return processed, firstErr
}

// repairBlock is the one writer of a rebuilt block, for the queue, Scrub and
// RepairNode alike. It resolves the object by quorum, never from the cache,
// and drops an item whose epoch has moved: rewriting a superseded epoch would
// bring back blocks its GC removed. It then rebuilds the block from any k
// survivors, checks it against the checksum recorded at write time (a repair
// must never replace rot with different garbage), writes it committed to its
// home node and drops any cached copy. Last it resolves again: an overwrite or
// Delete that published between the two reads may have collected the epoch
// before the write landed, so the block just written is removed. A publish
// after the second read is followed by its writer's own GC. If the second read
// fails, the write stands and the error is returned. A moved epoch at either
// read is errStaleRepair. The op's span is a child of parent.
func (s *Store) repairBlock(ctx context.Context, parent *trace.Span, it RepairItem) error {
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
func (s *Store) resolveRepair(ctx context.Context, sp *trace.Span, it RepairItem) (*ObjectMeta, error) {
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
// cache but still must find everything.
func (s *Store) DiscoverObjects() ([]string, error) {
	names := map[string]bool{}
	answered := 0
	for node := 0; node < s.client.NumNodes(); node++ {
		resp, err := s.call(context.Background(), nil, node, &rpc.Request{Kind: rpc.KindListBlocks})
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

// ScrubAll scrubs every discoverable object in the cluster — the
// continuous-verification pass the repair manager runs in the background.
// Per-object failures are reported, not fatal.
func (s *Store) ScrubAll(opts ScrubOptions) (*ScrubAllReport, error) {
	_, end := s.beginOp(context.Background(), "repair.scruball")
	defer end()
	names, err := s.DiscoverObjects()
	if err != nil {
		return nil, err
	}
	report := &ScrubAllReport{
		Reports: make(map[string]*ScrubReport),
		Errors:  make(map[string]string),
	}
	for _, name := range names {
		rep, err := s.Scrub(name, opts)
		if rep != nil {
			report.Reports[name] = rep
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
// repaired.
func (s *Store) RepairNodeAll(node int) (int, error) {
	_, end := s.beginOp(context.Background(), "repair.node")
	defer end()
	names, err := s.DiscoverObjects()
	if err != nil {
		return 0, err
	}
	total := 0
	var firstErr error
	for _, name := range names {
		n, err := s.RepairNode(name, node)
		total += n
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
// register's kv/ blocks) are never touched.
func (s *Store) ReconcileOrphans(force bool) (*ReconcileReport, error) {
	ctx := context.Background()
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
	kv, err := s.metaKV(ctx, sp, name)
	if err != nil {
		return nil, err
	}
	enc, _, err := kv.Get(metaKey(name))
	if err != nil {
		return nil, err
	}
	return DecodeMeta(enc, s.opts.Params)
}

// NodeState is the repair manager's view of one node's health.
type NodeState struct {
	// Up is the last heartbeat's outcome.
	Up bool
	// Breaker is the node's circuit state ("closed"/"open"/"half-open"),
	// when the store has a breaker.
	Breaker string
	// DownSince is when the node was last observed transitioning down.
	DownSince time.Time
}

// RepairManagerStats snapshots the manager's activity counters.
type RepairManagerStats struct {
	// Heartbeats counts completed heartbeat sweeps.
	Heartbeats uint64
	// Rejoins counts node down→up transitions that triggered catch-up.
	Rejoins uint64
	// RejoinRepairs counts blocks/replicas restored by rejoin catch-up.
	RejoinRepairs uint64
	// RepairsProcessed counts queue items the worker loop completed.
	RepairsProcessed uint64
	// ScrubPasses counts completed background ScrubAll passes.
	ScrubPasses uint64
	// ReconcilePasses counts completed reconciliation passes.
	ReconcilePasses uint64
}

// RepairManager is the store's self-healing background service: a
// heartbeat loop tracking per-node health (feeding the circuit breaker and
// detecting rejoins, which trigger a catch-up sweep), a rate-limited worker
// draining the repair queue the read path and scrubber feed, and optional
// continuous scrub and orphan-reconciliation loops.
type RepairManager struct {
	store *Store
	cfg   RepairConfig

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	mu    sync.Mutex
	nodes map[int]*NodeState
	stats RepairManagerStats
}

// StartRepairManager launches the background repair service and returns
// its handle. Stop it before discarding the store.
func (s *Store) StartRepairManager(cfg RepairConfig) *RepairManager {
	m := &RepairManager{
		store: s,
		cfg:   cfg.withDefaults(),
		stop:  make(chan struct{}),
		nodes: make(map[int]*NodeState),
	}
	m.wg.Add(2)
	go m.heartbeatLoop()
	go m.repairLoop()
	if m.cfg.ScrubEvery > 0 {
		m.wg.Add(1)
		go m.scrubLoop()
	}
	if m.cfg.ReconcileEvery > 0 {
		m.wg.Add(1)
		go m.reconcileLoop()
	}
	return m
}

// Stop terminates the manager's loops and waits for them. Idempotent.
func (m *RepairManager) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.wg.Wait()
}

// Stats returns the manager's activity counters.
func (m *RepairManager) Stats() RepairManagerStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Nodes returns the manager's per-node health view.
func (m *RepairManager) Nodes() map[int]NodeState {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[int]NodeState, len(m.nodes))
	for id, st := range m.nodes {
		out[id] = *st
	}
	return out
}

// sleep waits d or until Stop, reporting whether the manager should keep
// running.
func (m *RepairManager) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-m.stop:
		return false
	case <-t.C:
		return true
	}
}

// heartbeatLoop pings every node each period. Outcomes feed the circuit
// breaker (when configured) so foreground calls fail fast on a node the
// heartbeats already know is down, and a down→up transition triggers the
// rejoin catch-up sweep.
func (m *RepairManager) heartbeatLoop() {
	defer m.wg.Done()
	s := m.store
	for {
		if !m.sleep(m.cfg.HeartbeatEvery) {
			return
		}
		var rejoined []int
		for node := 0; node < s.client.NumNodes(); node++ {
			// One unretried probe with a bounded deadline, outside Store.call:
			// the breaker it feeds must not gate it, and its threshold absorbs
			// isolated blips.
			probe := cluster.Policy{MaxAttempts: 1, Timeout: m.cfg.HeartbeatEvery}
			resp, _, err := cluster.CallRetryCtx(context.Background(), s.client, node, &rpc.Request{Kind: rpc.KindPing}, probe)
			up := err == nil && resp.Err == ""
			if up {
				s.retry.Breaker.Success(node)
			} else {
				s.retry.Breaker.Failure(node)
			}
			m.mu.Lock()
			st := m.nodes[node]
			if st == nil {
				st = &NodeState{Up: true}
				m.nodes[node] = st
			}
			if up && !st.Up {
				rejoined = append(rejoined, node)
			}
			if !up && st.Up {
				st.DownSince = time.Now()
			}
			st.Up = up
			st.Breaker = s.retry.Breaker.State(node).String()
			m.mu.Unlock()
		}
		m.mu.Lock()
		m.stats.Heartbeats++
		m.mu.Unlock()
		for _, node := range rejoined {
			n, _ := s.RepairNodeAll(node)
			m.mu.Lock()
			m.stats.Rejoins++
			m.stats.RejoinRepairs += uint64(n)
			m.mu.Unlock()
		}
	}
}

// repairLoop drains the repair queue one item per Rate tick — the
// bandwidth governor between recovery and foreground traffic.
func (m *RepairManager) repairLoop() {
	defer m.wg.Done()
	for {
		if !m.sleep(m.cfg.Rate) {
			return
		}
		n, _ := m.store.ProcessRepairs(1)
		if n > 0 {
			m.mu.Lock()
			m.stats.RepairsProcessed += uint64(n)
			m.mu.Unlock()
		}
	}
}

// scrubLoop runs a full repairing verification pass per period: each block it
// finds missing or corrupt is rewritten through repairBlock, the writer the
// queue worker uses.
func (m *RepairManager) scrubLoop() {
	defer m.wg.Done()
	for {
		if !m.sleep(m.cfg.ScrubEvery) {
			return
		}
		_, _ = m.store.ScrubAll(ScrubOptions{Repair: true})
		m.mu.Lock()
		m.stats.ScrubPasses++
		m.mu.Unlock()
	}
}

// reconcileLoop garbage-collects crash debris per period (non-force: an
// in-flight Put's pending blocks are left alone).
func (m *RepairManager) reconcileLoop() {
	defer m.wg.Done()
	for {
		if !m.sleep(m.cfg.ReconcileEvery) {
			return
		}
		_, _ = m.store.ReconcileOrphans(false)
		m.mu.Lock()
		m.stats.ReconcilePasses++
		m.mu.Unlock()
	}
}
