package store

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

	"github.com/fusionstore/fusion/internal/bufpool"
	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/sched"
	"github.com/fusionstore/fusion/internal/trace"
)

// ErrTooManyFailures is the sentinel for a degraded operation that ran out
// of redundancy: fewer than k of a stripe's n blocks were readable, so the
// RS code cannot reconstruct. Every unrecoverable degraded-path error wraps
// it (errors.Is), which is what the chaos tests assert once failures exceed
// the code's n−k tolerance.
var ErrTooManyFailures = errors.New("store: too many failures")

// Get reads length bytes of the object starting at offset (length 0 = to
// the end). Reads survive up to n−k node failures: a block on a down node
// is rebuilt from the rest of its stripe via RS reconstruction (a degraded
// read, §5 "Recovery and Fault Tolerance").
func (s *Store) Get(name string, offset, length uint64) ([]byte, error) {
	return s.GetContext(context.Background(), name, offset, length)
}

// GetContext is Get under a context. When the context carries a trace span
// (trace.Start), the read records a span tree — meta read, per-block RPCs,
// reconstructions — plus byte counters for read amplification; an untraced
// context costs nothing.
func (s *Store) GetContext(ctx context.Context, name string, offset, length uint64) ([]byte, error) {
	sp, end, err := s.admitOp(ctx, "Get", sched.ClassPoint)
	if err != nil {
		return nil, err
	}
	defer end()
	msp := sp.Child("meta")
	meta, err := s.meta(ctx, msp, name)
	msp.End()
	if err != nil {
		return nil, err
	}
	data, err := s.getWithMeta(ctx, sp, meta, offset, length)
	// A cancelled or expired caller must not burn a quorum read and a second
	// full pass: the retry exists for concurrent overwrites, not deadlines.
	if err != nil && ctxErr(ctx) == nil {
		// The metadata may have been captured before a concurrent
		// overwrite committed: the blocks it points at can be
		// garbage-collected mid-read. Re-resolve against the quorum and
		// retry once iff the object really moved to a newer epoch.
		if fresh := s.refreshedMeta(ctx, sp, name, meta); fresh != nil {
			return s.getWithMeta(ctx, sp, fresh, offset, length)
		}
	}
	return data, err
}

// getWithMeta runs a Get against one specific metadata snapshot.
func (s *Store) getWithMeta(ctx context.Context, sp *trace.Span, meta *ObjectMeta, offset, length uint64) ([]byte, error) {
	if offset > meta.Size {
		return nil, fmt.Errorf("store: offset %d beyond object of %d bytes", offset, meta.Size)
	}
	if length == 0 {
		length = meta.Size - offset
	}
	// Overflow-safe range check: offset+length can wrap uint64 (e.g.
	// length = ^uint64(0)), so never compare the sum against Size.
	if length > meta.Size-offset {
		return nil, fmt.Errorf("store: range [%d,+%d) beyond object of %d bytes", offset, length, meta.Size)
	}
	if length == 0 {
		return []byte{}, nil
	}
	sp.Count(trace.BytesRequested, length)
	return s.readSegments(ctx, sp, meta, s.segments(meta, offset, length), length)
}

// refreshedMeta re-resolves an object's metadata against the quorum after a
// failed read, returning it only when the object has actually moved to a
// different epoch (the stale-snapshot case worth retrying). The fresh
// metadata replaces the cached entry and every data-tier entry of older
// epochs is dropped.
func (s *Store) refreshedMeta(ctx context.Context, sp *trace.Span, name string, old *ObjectMeta) *ObjectMeta {
	fresh, err := s.metaQuorum(ctx, sp, name)
	if err != nil || fresh.Epoch == old.Epoch {
		return nil
	}
	s.cache.PutMeta(name, fresh)
	s.cache.InvalidateObject(name, fresh.Epoch)
	return fresh
}

// segment is one contiguous piece of a read: a byte range of one stripe's
// data bin, destined for out[outStart:outStart+length].
type segment struct {
	stripe, bin int
	off, length uint64
	outStart    uint64
}

// segments plans the read of object bytes [offset, offset+length): the
// stripe-bin ranges covering it, for either layout. FAC walks the item table
// (item i lives at ItemLocs[i], and a range may cross items packed into
// different bins); fixed layout is arithmetic — block i of the object is bin
// i%k of stripe i/k. Every read-side consumer derives its spans here: Get, a
// query's chunk fetch, chunk repair and ChunkNodeSpan. The caller has
// bounds-checked the range against meta.Size.
func (s *Store) segments(meta *ObjectMeta, offset, length uint64) []segment {
	end := offset + length
	if meta.Mode == LayoutFAC {
		overlaps := func(it Item) bool {
			return it.Size != 0 && it.Offset < end && it.Offset+it.Size > offset
		}
		n := 0
		for _, it := range meta.Items {
			if overlaps(it) {
				n++
			}
		}
		segs := make([]segment, 0, n) // exact: one allocation per plan
		for i, it := range meta.Items {
			if !overlaps(it) {
				continue
			}
			a := max(offset, it.Offset) // absolute start of the overlap
			loc := meta.ItemLocs[i]
			segs = append(segs, segment{
				stripe: loc.Stripe, bin: loc.Bin,
				off:    loc.BinOffset + a - it.Offset,
				length: min(end, it.Offset+it.Size) - a, outStart: a - offset,
			})
		}
		return segs
	}
	bs := meta.BlockSize
	k := uint64(s.opts.Params.K)
	var segs []segment
	for pos := offset; pos < end; {
		blockIdx := pos / bs
		within := pos - blockIdx*bs
		n := min(bs-within, end-pos)
		segs = append(segs, segment{
			stripe: int(blockIdx / k), bin: int(blockIdx % k),
			off: within, length: n, outStart: pos - offset,
		})
		pos += n
	}
	return segs
}

// blockRead is one read of a planned Get or chunk fetch: bytes [off,
// off+length) of a data block — the whole of it when whole — and the windows
// of the read's buffer they belong in, in block order.
type blockRead struct {
	stripe, bin int
	off, length uint64
	whole       bool
	windows     [][]byte
	data        []byte        // the block from the cache, when the planner found it there
	pre         *rpc.Response // its prefetched reply, if any
}

// readSegments assembles a read's planned segments into one buffer. A block
// whose segments together cover it whole — the common case for full-object
// and row-group reads, where the items of a block tile it exactly — is read
// once, whole, however many items it holds, and verified against the stripe
// checksum; every other segment is a ranged read, verified against the CRC
// the node computed over it. Each read names the windows of out its bytes
// belong in, and with the cache off the transport lands them straight there
// (rpc.Request.LandIn): a block's bytes are written once, by the socket read.
// The distinct whole blocks not already cached are prefetched through
// scatter, one frame per node instead of one round trip per block; under
// scatter's contract a nil reply (lost frame, failed sub-read) leaves that
// block to readBlock's bare call, which lands in the same windows.
//
// This is the one place bytes that did not land are copied into out — a
// reply over a transport that does not land (simnet), one too short to leave
// the header or not the length asked for, a cached block, a rebuilt one — and
// the one place reply frames are released (rpc.Response.Release): every
// GetBlock reply the read is served from — the prefetch frames and the
// replies readBlock hands back — is verified, landed or copied, and after the
// last copy handed back to bufpool, so the next read's frames cost no fresh
// zeroed memory. A reply gets here only once nobody else can reach it: the
// cache and a flight's followers are given a copy (readBlock). Replies of
// failed reads do not get here and are left to the collector.
func (s *Store) readSegments(ctx context.Context, sp *trace.Span, meta *ObjectMeta, segs []segment, length uint64) ([]byte, error) {
	out := make([]byte, length)
	var replies []*rpc.Response // released once the last byte is in out
	defer func() {
		for _, reply := range replies {
			reply.Release()
		}
	}()
	// Bytes requested per block; ranges never overlap (items are disjoint),
	// so covering DataLens bytes means tiling the whole block.
	covered := make(map[blockKey]uint64, len(segs))
	var planned uint64
	for _, g := range segs {
		covered[blockKey{g.stripe, g.bin}] += g.length
		planned += g.length
	}
	if planned != length {
		return nil, fmt.Errorf("store: assembled %d bytes, want %d", planned, length)
	}
	// One read per whole block and per other segment; a segment's window is
	// its share of out, and a read's windows are in block order — the order
	// the bytes arrive in, which for a whole block is not object order: the
	// items of a bin need not be.
	type part struct {
		read   int
		off    uint64
		window []byte
	}
	reads := make([]blockRead, 0, len(segs))
	parts := make([]part, len(segs))
	wholeAt := make(map[blockKey]int, len(covered)) // a whole block's index in reads
	for i, g := range segs {
		key := blockKey{g.stripe, g.bin}
		blockLen := meta.Stripes[g.stripe].DataLens[g.bin]
		at, ok := wholeAt[key]
		switch {
		case covered[key] != blockLen:
			at = len(reads)
			reads = append(reads, blockRead{stripe: g.stripe, bin: g.bin, off: g.off, length: g.length})
		case !ok:
			at = len(reads)
			wholeAt[key] = at
			reads = append(reads, blockRead{stripe: g.stripe, bin: g.bin, length: blockLen, whole: true})
		}
		parts[i] = part{at, g.off, out[g.outStart : g.outStart+g.length : g.outStart+g.length]}
	}
	slices.SortFunc(parts, func(a, b part) int { return cmp.Or(cmp.Compare(a.read, b.read), cmp.Compare(a.off, b.off)) })
	windows := make([][]byte, len(parts))
	for i := 0; i < len(parts); {
		j := i
		for ; j < len(parts) && parts[j].read == parts[i].read; j++ {
			windows[j] = parts[j].window
		}
		reads[parts[i].read].windows = windows[i:j:j]
		i = j
	}
	reqs := make([]nodeReq, 0, len(reads))
	reqOf := make([]int, 0, len(reads)) // reqs[i] reads reads[reqOf[i]]
	perNode := make(map[int]int)
	for i := range reads {
		r := &reads[i]
		if !r.whole {
			continue
		}
		if block, ok := s.cachedBlock(sp, meta, r.stripe, r.bin); ok {
			r.data = block
			continue
		}
		st := &meta.Stripes[r.stripe]
		req := s.getBlockReq(st, r.bin, 0, 0)
		if !s.cacheOn() {
			req.LandIn(r.windows...)
		}
		reqs = append(reqs, nodeReq{st.Nodes[r.bin], req})
		reqOf = append(reqOf, i)
		perNode[st.Nodes[r.bin]]++
	}
	// A node asked for one block gains nothing from a frame: its request
	// is dropped here and readBlock's bare call reads the block.
	n := 0
	for i, r := range reqs {
		if perNode[r.node] > 1 {
			reqs[n], reqOf[n] = r, reqOf[i]
			n++
		}
	}
	var subs []*rpc.Response
	subs, replies = s.scatter(ctx, sp, reqs[:n])
	for i, resp := range subs {
		reads[reqOf[i]].pre = resp
	}
	for i := range reads {
		r := &reads[i]
		data := r.data
		if data == nil {
			var reply *rpc.Response
			var err error
			data, reply, err = s.readBlock(ctx, sp, meta, r.stripe, r.bin, r.off, r.length, r.pre, r.windows)
			if reply != nil {
				replies = append(replies, reply)
			}
			if err != nil {
				return nil, err
			}
		}
		// data is nil when the bytes landed; else this is their one copy.
		for _, w := range r.windows {
			data = data[copy(w, data):]
		}
	}
	return out, nil
}

// errBlockChecksum marks a block read whose bytes failed verification: the
// node refused a block rotted at rest, the reply was corrupted in flight, or
// the stored bytes do not match the checksum recorded at write time. Scrub
// reports these apart from blocks that are merely unreachable.
var errBlockChecksum = errors.New("store: block failed checksum verification")

// getBlockReq builds the GetBlock request for block j of a stripe: the range
// [off, off+length), or the whole block when length is 0. A whole block is
// checked by the coordinator against the checksum in its own stripe metadata
// (verifyBlock) — one pass covering both rot at rest and corruption in
// transit — so the node is told to skip its redundant at-rest pass.
func (s *Store) getBlockReq(st *StripeMeta, j int, off, length uint64) rpc.Request {
	return rpc.Request{
		Kind: rpc.KindGetBlock, BlockID: st.BlockIDs[j], Offset: off, Length: length,
		CallerVerifies: length == 0,
	}
}

// verifyBlock is the one place a GetBlock reply — bare or a batch
// sub-response — becomes verified bytes or an error. Transport and plain
// application errors pass through. A whole block (length 0) must match the
// stripe checksum recorded at write time, a range of length bytes must be
// that long and match the CRC the node computed over the bytes it served;
// either is checked where the payload is — in Data, or in the caller's
// windows when it landed there, in which case the bytes returned are nil.
// Every checksum fault (those, or the node refusing a block that failed its
// at-rest check) wraps errBlockChecksum, counts one ChecksumFailure and
// queues the block for repair; the caller then treats the block as an
// erasure.
func (s *Store) verifyBlock(sp *trace.Span, meta *ObjectMeta, stripe, j int, length uint64, resp *rpc.Response, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	st := &meta.Stripes[stripe]
	switch {
	case resp.Err != "" && !cluster.IsChecksumErr(resp.Err):
		return nil, errors.New(resp.Err)
	case resp.Err != "":
		err = fmt.Errorf("%w: %s", errBlockChecksum, resp.Err)
	case length == 0 && replyChecksum(resp) != st.Checksums[j]:
		err = fmt.Errorf("%w: %s does not match its stripe checksum", errBlockChecksum, st.BlockIDs[j])
	case length != 0 && (resp.PayloadBytes() != length || replyChecksum(resp) != resp.Crc):
		err = fmt.Errorf("%w: %s: reply failed its end-to-end checksum", errBlockChecksum, st.BlockIDs[j])
	default:
		return resp.Data, nil
	}
	sp.Count(trace.ChecksumFailures, 1)
	s.enqueueRepair(RepairItem{Object: meta.Name, Epoch: meta.Epoch, Stripe: stripe, Block: j})
	return nil, err
}

// replyChecksum is the CRC32C of a GetBlock reply's payload, wherever it is.
func replyChecksum(resp *rpc.Response) uint32 {
	if windows := resp.Landed(); windows != nil {
		return cluster.ChecksumAll(windows)
	}
	return cluster.Checksum(resp.Data)
}

// fetchBlock is one bare, verified GetBlock of block j (data or parity): the
// range [off, off+length), or the whole block when length is 0, landing in
// windows when the caller names them (nil bytes are returned then). Bytes
// that did not land alias the reply returned beside them, which a caller
// that has copied them out may Release (readSegments does, through
// readBlock; the rest drop it).
func (s *Store) fetchBlock(ctx context.Context, sp *trace.Span, meta *ObjectMeta, stripe, j int, off, length uint64, windows [][]byte) ([]byte, *rpc.Response, error) {
	st := &meta.Stripes[stripe]
	req := s.getBlockReq(st, j, off, length)
	req.LandIn(windows...)
	resp, err := s.call(ctx, sp, st.Nodes[j], &req)
	data, err := s.verifyBlock(sp, meta, stripe, j, length, resp, err)
	return data, resp, err
}

// cachedBlock returns a data block's bytes from the coordinator cache. Cached
// bytes were CRC-verified on fill (cacheFillBlock admits nothing else), so a
// hit skips verification entirely and — because it never touches s.call —
// contributes zero bytes-from-nodes to read amplification.
func (s *Store) cachedBlock(sp *trace.Span, meta *ObjectMeta, stripe, bin int) ([]byte, bool) {
	if !s.cacheOn() {
		return nil, false
	}
	v, ok := s.cache.Get(blockKeyOf(meta, stripe, bin))
	if !ok {
		return nil, false
	}
	sp.Count(trace.CacheHits, 1)
	return v.([]byte), true
}

// recheckBlock is cachedBlock as the first step of a flight that fetches or
// rebuilds the block. Checking the cache and then joining the flight are two
// steps: a reader that misses just before an earlier leader fills the cache
// and leaves the flight map finds no flight to join and leads one of its own.
// Looking again from inside the flight closes that window exactly — a leader
// fills the cache before its flight ends — so one lost block costs one RS
// decode however its readers interleave.
func (s *Store) recheckBlock(sp *trace.Span, meta *ObjectMeta, stripe, bin int) ([]byte, bool) {
	v, ok := s.cache.Recheck(blockKeyOf(meta, stripe, bin))
	if !ok {
		return nil, false
	}
	sp.Count(trace.CacheHits, 1)
	return v.([]byte), true
}

// cacheFillBlock admits one block's bytes to the cache, which keeps them: the
// caller hands over memory nobody will release or write. Admission requires
// a successful CRC check against the stripe metadata — that verification is
// what lets hits skip the read path's own pass.
func (s *Store) cacheFillBlock(meta *ObjectMeta, stripe, bin int, block []byte) {
	if !s.cacheOn() {
		return
	}
	if cluster.Checksum(block) != meta.Stripes[stripe].Checksums[bin] {
		return
	}
	s.cache.Put(blockKeyOf(meta, stripe, bin), block, uint64(len(block)))
}

// readBlock serves one planned read — bytes [off, off+length) of data block
// bin, which belong in windows — and is the only way block bytes reach a Get
// or a query's chunk fetch. pre is the block's prefetched reply, if the
// planner got one. With the cache off a reply lands in windows when it can,
// and the bytes returned are then nil; otherwise they are the bytes, for the
// caller to copy, and may alias the reply a bare call fetched them in,
// returned beside them (else nil): the caller's to Release once it has
// copied them out, and nobody else's. With the cache on, reads are served at
// block granularity: a hit slices resident bytes, and a miss fetches (and
// caches) the whole block under singleflight, so the next range of the block
// is a hit and N concurrent readers of one block trigger one fetch.
func (s *Store) readBlock(ctx context.Context, sp *trace.Span, meta *ObjectMeta, stripe, bin int, off, length uint64, pre *rpc.Response, windows [][]byte) (data []byte, reply *rpc.Response, err error) {
	if !s.cacheOn() {
		return s.directOrDegraded(ctx, sp, meta, stripe, bin, off, length, pre, windows)
	}
	if pre == nil { // a prefetched reply means the planner just missed the cache
		if block, ok := s.cachedBlock(sp, meta, stripe, bin); ok {
			data, err := sliceBlock(block, off, length)
			return data, nil, err
		}
	}
	st := &meta.Stripes[stripe]
	v, err, _ := s.cache.Do("b/"+st.BlockIDs[bin], func() (any, error) {
		if block, ok := s.recheckBlock(sp, meta, stripe, bin); ok {
			return block, nil
		}
		block, r, err := s.directOrDegraded(ctx, sp, meta, stripe, bin, 0, st.DataLens[bin], pre, nil)
		if err != nil {
			return nil, err
		}
		// What the cache keeps and the flight's followers share is a copy of
		// exactly the block: the bytes read may be a window of a reply frame
		// (a rented buffer up to twice the block, which the leader's Get is
		// about to release) or, over simnet, of the node's own memory.
		reply, block = r, bytes.Clone(block)
		s.cacheFillBlock(meta, stripe, bin, block)
		return block, nil
	})
	if err != nil {
		return nil, nil, err
	}
	data, err = sliceBlock(v.([]byte), off, length)
	return data, reply, err
}

// directOrDegraded is the read rule of §5 "Recovery and Fault Tolerance":
// read the block where it lives, and if that fails — node unreachable, block
// gone, or a checksum fault, which has already queued the repair — treat it
// as an erasure and rebuild it from k of the stripe's survivors. The
// direct step is the prefetched reply when there is one, else a bare call,
// whose reply is returned beside the bytes that alias it (fetchBlock); a read
// of the whole block is verified against the stripe checksum. Either lands in
// windows when it can (nil bytes), and a rebuilt block is returned for the
// caller to copy into them. A slow node is waited for, up to the caller's
// deadline: only a failed direct read starts the reconstruction fan-out.
func (s *Store) directOrDegraded(ctx context.Context, sp *trace.Span, meta *ObjectMeta, stripe, bin int, off, length uint64, pre *rpc.Response, windows [][]byte) ([]byte, *rpc.Response, error) {
	bsp := sp.Child("block")
	defer bsp.End()
	var data []byte
	var reply *rpc.Response
	var derr error
	switch {
	case pre != nil: // the planner holds pre's frame
		data, derr = s.verifyBlock(bsp, meta, stripe, bin, 0, pre, nil)
	case length == meta.Stripes[stripe].DataLens[bin]:
		data, reply, derr = s.fetchBlock(ctx, bsp, meta, stripe, bin, 0, 0, windows)
	default:
		data, reply, derr = s.fetchBlock(ctx, bsp, meta, stripe, bin, off, length, windows)
	}
	if derr == nil {
		return data, reply, nil
	}
	// A dead context dooms the reconstruction fan-out too: don't start it.
	if ctxErr(ctx) != nil {
		return nil, nil, readFailed(ctx, derr, nil)
	}
	block, rerr := s.reconstructBlock(ctx, bsp, meta, stripe, bin)
	if rerr == nil {
		if data, rerr = sliceBlock(block, off, length); rerr == nil {
			return data, nil, nil
		}
	}
	return nil, nil, readFailed(ctx, derr, rerr)
}

// readFailed is the error of a block read whose direct and degraded steps
// both failed (degraded is nil when it was never started). When the caller's
// context is done, its budget — not shard availability — is what failed the
// read, so the context error is the one wrapped instead of a misleading
// ErrTooManyFailures.
func readFailed(ctx context.Context, direct, degraded error) error {
	if cerr := ctxErr(ctx); cerr != nil {
		return fmt.Errorf("store: read abandoned (direct: %v; degraded: %v): %w", direct, degraded, cerr)
	}
	return fmt.Errorf("store: degraded read failed (direct: %v): %w", direct, degraded)
}

// sliceBlock bounds-checks and slices [off, off+length) of a reconstructed
// block. The two-step comparison is overflow-safe for adversarial offsets
// and lengths (off+length may wrap uint64).
func sliceBlock(block []byte, off, length uint64) ([]byte, error) {
	if off > uint64(len(block)) || length > uint64(len(block))-off {
		return nil, fmt.Errorf("store: reconstructed block is %d bytes, need [%d,+%d)", len(block), off, length)
	}
	return block[off : off+length : off+length], nil
}

// fanOutStripe reads verified whole blocks of a stripe until want of them are
// in hand or every bin but skip (-1 skips none) has been tried: the want
// lowest-numbered bins first, concurrently, then the next untried bin for
// each failure. It waits for every read it starts and charges a query's
// ledger in bin order, so which blocks it reads, and their cost, depend only
// on which reads fail. shards[j] is bin j's block padded to the stripe's
// capacity, errs[j] the failure of a bin read that failed.
func (s *Store) fanOutStripe(ctx context.Context, sp *trace.Span, meta *ObjectMeta, stripe, skip, want int) (shards [][]byte, errs []error) {
	n := s.opts.Params.N
	shards, errs = make([][]byte, n), make([]error, n)
	subs := make([]*execState, n)
	for next, got := 0, 0; got < want && next < n; {
		var wave []int
		for ; next < n && len(wave) < want-got; next++ {
			if next != skip {
				wave = append(wave, next)
			}
		}
		runTasks(len(wave), len(wave), func(i int) {
			j := wave[i]
			var rctx context.Context
			rctx, subs[j] = forkCtx(ctx)
			data, _, err := s.fetchBlock(rctx, sp, meta, stripe, j, 0, 0, nil)
			if errs[j] = err; err == nil {
				shards[j] = padShard(data, meta.Stripes[stripe].Capacity)
			}
		})
		for _, j := range wave {
			if errs[j] == nil {
				got++
			}
		}
	}
	st := ledgerOf(ctx)
	for _, sub := range subs {
		st.join(sub)
	}
	return shards, errs
}

// gatherSurvivors reads k of a stripe's blocks other than skip, the one being
// rebuilt (fanOutStripe), and returns them capacity-padded and indexed by bin.
// Survivors feed RS decode, so a silently rotted shard would corrupt every
// block rebuilt from it: fetchBlock verifies each against the checksum
// recorded at write time, and one that fails is an erasure. This is the one
// survivor-gathering path shared by block and parity reconstruction.
func (s *Store) gatherSurvivors(ctx context.Context, sp *trace.Span, meta *ObjectMeta, stripe, skip int) ([][]byte, error) {
	p := s.opts.Params
	shards, _ := s.fanOutStripe(ctx, sp, meta, stripe, skip, p.K)
	available := 0
	for _, sh := range shards {
		if sh != nil {
			available++
		}
	}
	if available < p.K {
		putSurvivors(shards, -1)
		return nil, fmt.Errorf("%w: only %d of %d shards available for stripe %d", ErrTooManyFailures, available, p.K, stripe)
	}
	return shards, nil
}

// reconstructBlock rebuilds block j of a stripe — data or parity — from k
// surviving blocks and returns its stored (unpadded) bytes. With the cache
// enabled the rebuild runs under singleflight: a thundering herd of readers
// hitting the same lost block triggers exactly one survivor fan-out and one RS
// decode, and every reader shares the result (which is also admitted to the
// cache, so later readers hit without any decode at all).
func (s *Store) reconstructBlock(ctx context.Context, sp *trace.Span, meta *ObjectMeta, stripe, j int) ([]byte, error) {
	if !s.cacheOn() {
		return s.rebuildBlock(ctx, sp, meta, stripe, j)
	}
	v, err, _ := s.cache.Do("r/"+meta.Stripes[stripe].BlockIDs[j], func() (any, error) {
		if block, ok := s.recheckBlock(sp, meta, stripe, j); ok {
			return block, nil
		}
		block, err := s.rebuildBlock(ctx, sp, meta, stripe, j)
		if err != nil {
			return nil, err
		}
		s.cacheFillBlock(meta, stripe, j, block)
		return block, nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]byte), nil
}

// rebuildBlock is the actual survivor-gathering RS rebuild. A data block
// needs only the data half of the decode.
func (s *Store) rebuildBlock(ctx context.Context, sp *trace.Span, meta *ObjectMeta, stripe, j int) ([]byte, error) {
	name, decode := "reconstruct", s.coder.ReconstructData
	if j >= s.opts.Params.K {
		name, decode = "reconstruct-parity", s.coder.Reconstruct
	}
	rsp := sp.Child(name)
	defer rsp.End()
	rsp.Count(trace.DegradedReads, 1)
	shards, err := s.gatherSurvivors(ctx, rsp, meta, stripe, j)
	if err != nil {
		return nil, err
	}
	s.cache.CountDecode()
	if err := decode(shards); err != nil {
		return nil, err
	}
	// The rebuilt shard is freshly allocated by the decode (j was nil on
	// entry), so the pooled survivor buffers have no readers left: return
	// them to the arena before handing the block out.
	block := shards[j]
	if j < s.opts.Params.K {
		block = block[:meta.Stripes[stripe].DataLens[j]]
	}
	putSurvivors(shards, j)
	return block, nil
}

// padShard copies b into a pooled capacity-sized shard buffer, zero-padding
// the tail (pooled bytes are unspecified). The copy — never aliasing b — is
// what makes returning the shard to the arena after decoding safe: the RPC
// response that produced b may be cached or aliased elsewhere, but the shard
// itself has exactly one owner.
func padShard(b []byte, size uint64) []byte {
	out := bufpool.GetLen(int(size))
	n := copy(out, b)
	clear(out[n:])
	return out
}

// putSurvivors returns a reconstruction's shard buffers to the arena,
// skipping the one at keep — the result handed to callers. Every other
// entry is dead after the decode and singly-owned: padShard copies (never
// aliases) the RPC replies, and shards the decode itself allocated have no
// other reference either.
func putSurvivors(shards [][]byte, keep int) {
	for j, sh := range shards {
		if j != keep && sh != nil {
			bufpool.Put(sh)
		}
	}
}

// RepairNode restores every block an object had on the given node — the
// conventional recovery procedure run after a node is replaced — and returns
// how many it rewrote. Metadata replicas hosted by the node are restored too,
// by the quorum read the blocks are found with. A block the node still holds
// with verifying bytes is skipped; every other goes to repairBlock at the
// epoch read. An object overwritten or deleted meanwhile ends the sweep
// without error.
func (s *Store) RepairNode(name string, node int) (int, error) {
	ctx := context.Background()
	sp, end := s.beginOp(ctx, "RepairNode")
	defer end()
	meta, err := s.metaQuorum(ctx, sp, name)
	if err != nil {
		return 0, fmt.Errorf("store: object %q: %w", name, err)
	}
	repaired := 0
	if slices.Contains(s.metaReplicaNodes(name), node) {
		repaired++
	}
	for si, st := range meta.Stripes {
		for j, blkNode := range st.Nodes {
			if blkNode != node {
				continue
			}
			if _, _, err := s.fetchBlock(ctx, sp, meta, si, j, 0, 0, nil); err == nil {
				continue
			}
			err := s.repairBlock(ctx, sp, RepairItem{Object: name, Epoch: meta.Epoch, Stripe: si, Block: j})
			if errors.Is(err, errStaleRepair) {
				return repaired, nil
			}
			if err != nil {
				return repaired, fmt.Errorf("store: repairing stripe %d block %d: %w", si, j, err)
			}
			repaired++
		}
	}
	return repaired, nil
}
