package store

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync/atomic"

	"github.com/fusionstore/fusion/internal/bufpool"
	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/fac"
	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/trace"
)

// footerProbeBytes is the tail read a streamed Put starts with. Footers
// larger than the probe (huge schemas) trigger exactly one re-read of the
// precise footer region.
const footerProbeBytes = 64 << 10

// putSource is the random-access view of a Put's payload. The lpq footer
// lives at the file tail, so bounded-memory streaming fundamentally needs
// an io.ReaderAt; a purely sequential reader is materialized once (the
// documented fallback) and then served through the same interface, keeping
// the rest of the pipeline single-pathed.
type putSource struct {
	ra   io.ReaderAt
	size uint64
}

func newPutSource(r io.Reader, size uint64) (*putSource, error) {
	if ra, ok := r.(io.ReaderAt); ok {
		return &putSource{ra: ra, size: size}, nil
	}
	buf := make([]byte, size)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("source ended before declared size %d: %w", size, err)
	}
	// The declared size must be exact — a longer source would be silently
	// truncated into an object whose footer no longer matches its body.
	var probe [1]byte
	if _, err := io.ReadFull(r, probe[:]); err != io.EOF {
		if err == nil {
			return nil, fmt.Errorf("source longer than declared size %d", size)
		}
		return nil, err
	}
	return &putSource{ra: bytes.NewReader(buf), size: size}, nil
}

// readAt fills dst from the source at offset off, treating short reads and
// out-of-bounds ranges as errors.
func (ps *putSource) readAt(dst []byte, off uint64) error {
	if len(dst) == 0 {
		return nil
	}
	if off+uint64(len(dst)) > ps.size || off+uint64(len(dst)) < off {
		return fmt.Errorf("store: read [%d,%d) beyond declared size %d", off, off+uint64(len(dst)), ps.size)
	}
	n, err := ps.ra.ReadAt(dst, int64(off))
	if n == len(dst) {
		return nil // ReaderAt may pair a full read at the tail with io.EOF
	}
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// parseFooter probes the source tail for the lpq footer and verifies the
// leading magic, reading at most footerProbeBytes + the exact footer region
// + 4 head bytes — never the body.
func (ps *putSource) parseFooter() (*lpq.Footer, int, error) {
	probe := uint64(footerProbeBytes)
	if probe > ps.size {
		probe = ps.size
	}
	tail := make([]byte, probe)
	if err := ps.readAt(tail, ps.size-probe); err != nil {
		return nil, 0, err
	}
	fsize, err := lpq.FooterSizeTail(tail, ps.size)
	if err != nil {
		return nil, 0, err
	}
	if fsize > len(tail) {
		tail = make([]byte, fsize)
		if err := ps.readAt(tail, ps.size-uint64(fsize)); err != nil {
			return nil, 0, err
		}
	}
	footer, err := lpq.ParseFooterTail(tail, ps.size)
	if err != nil {
		return nil, 0, err
	}
	head := make([]byte, len(lpq.Magic))
	if err := ps.readAt(head, 0); err != nil {
		return nil, 0, err
	}
	if string(head) != lpq.Magic {
		return nil, 0, lpq.ErrFormat
	}
	return footer, fsize, nil
}

// fileSeg is one contiguous byte range of the source object.
type fileSeg struct{ off, n uint64 }

// binPlan lists the source ranges concatenated (in order) into one data bin.
type binPlan struct {
	segs []fileSeg
	size uint64
}

// stripePlan is the gather recipe for one stripe: where in the source file
// each of the k data bins' bytes live. Plans are derived from the footer
// alone, so the complete layout exists before any body byte is resident —
// the property that lets the pipeline read the object stripe by stripe.
type stripePlan struct {
	capacity uint64
	bins     []binPlan
}

// facStripePlans converts a FAC layout into gather plans. The layout is the
// unmodified output of the global stripe construction (Algorithm 1) — the
// streamed placement is bit-identical to the materialized one.
func facStripePlans(layout fac.Layout, items []Item) []stripePlan {
	plans := make([]stripePlan, len(layout.Stripes))
	for si, st := range layout.Stripes {
		pl := stripePlan{capacity: st.Capacity, bins: make([]binPlan, len(st.Bins))}
		for j, bin := range st.Bins {
			bp := binPlan{size: st.BinSizes[j], segs: make([]fileSeg, 0, len(bin))}
			for _, itemIdx := range bin {
				it := items[itemIdx]
				bp.segs = append(bp.segs, fileSeg{off: it.Offset, n: it.Size})
			}
			pl.bins[j] = bp
		}
		plans[si] = pl
	}
	return plans
}

// fixedStripePlans builds gather plans for fixed-block striping: block j of
// stripe si covers source bytes [(si·k+j)·bs, …+bs), the tail block short.
func fixedStripePlans(size, bs uint64, k int) []stripePlan {
	fb := fac.NewFixedBlockLayout(size, bs, k)
	plans := make([]stripePlan, fb.NumStripes)
	for si := range plans {
		pl := stripePlan{capacity: bs, bins: make([]binPlan, k)}
		for j := 0; j < k; j++ {
			start := (uint64(si)*uint64(k) + uint64(j)) * bs
			if start < size {
				n := size - start
				if n > bs {
					n = bs
				}
				pl.bins[j] = binPlan{size: n, segs: []fileSeg{{off: start, n: n}}}
			}
		}
		plans[si] = pl
	}
	return plans
}

// memGauge tracks the pipeline's resident pooled bytes and their high-water
// mark. The builder and scatter goroutines account concurrently, so both
// counters are atomics.
type memGauge struct{ cur, peak atomic.Int64 }

func (g *memGauge) add(n int64) {
	c := g.cur.Add(n)
	for {
		p := g.peak.Load()
		if c <= p || g.peak.CompareAndSwap(p, c) {
			return
		}
	}
}

// stripeJob is one stripe in flight: pooled arenas holding the gathered
// data bins (zero-padded to capacity for encoding) and the computed parity,
// and the stripe's metadata record, complete but for the nodes.
type stripeJob struct {
	si     int
	blocks [][]byte   // n views to scatter: data bins unpadded, parity at capacity
	sm     StripeMeta // ids, data lengths and checksums of blocks; placeRound fills Nodes
	bufs   [][]byte   // pooled backing arenas, released after scatter
	bytes  int64      // resident footprint: sum of arena capacities
}

// release returns the job's arenas to the pool and retires its footprint
// from the gauge. With bufpool poisoning enabled the arenas are scribbled on
// return — any scattered frame still aliasing a pooled buffer fails its CRC
// immediately instead of corrupting data at rest.
func (j *stripeJob) release(g *memGauge) {
	for _, b := range j.bufs {
		bufpool.Put(b)
	}
	g.add(-j.bytes)
	j.bufs = nil
}

// buildStripe gathers one stripe's data-bin bytes from the source into
// pooled arenas, computes its parity, and names and checksums the n blocks —
// the read+encode half of the pipeline, overlapped with the previous round's
// scatter. The CRC pass runs here, on the core that just gathered and encoded
// the bytes, so the scatter is pure I/O.
func (s *Store) buildStripe(meta *ObjectMeta, src *putSource, si int, pl stripePlan, g *memGauge) (*stripeJob, error) {
	p := s.opts.Params
	job := &stripeJob{si: si, blocks: make([][]byte, p.N), sm: StripeMeta{
		Capacity: pl.capacity, Nodes: make([]int, p.N), BlockIDs: make([]string, p.N),
		DataLens: make([]uint64, p.K), Checksums: make([]uint32, p.N),
	}}
	rent := func(n uint64) []byte {
		b := bufpool.GetLen(int(n))
		job.bufs = append(job.bufs, b)
		job.bytes += int64(cap(b))
		g.add(int64(cap(b)))
		return b
	}
	fail := func(err error) (*stripeJob, error) {
		job.release(g)
		return nil, err
	}
	for j := 0; j < p.K; j++ {
		bp := pl.bins[j]
		buf := rent(pl.capacity)
		var pos uint64
		for _, seg := range bp.segs {
			if err := src.readAt(buf[pos:pos+seg.n], seg.off); err != nil {
				return fail(fmt.Errorf("store: gathering stripe %d bin %d: %w", si, j, err))
			}
			pos += seg.n
		}
		if pos != bp.size {
			return fail(fmt.Errorf("store: stripe %d bin %d gathered %d of %d bytes", si, j, pos, bp.size))
		}
		// Pooled arenas carry stale (or poisoned) bytes: the capacity
		// padding must be explicit zeros so parity matches the implicit
		// zero-extension decode performs on unpadded stored bins.
		clear(buf[pos:])
		job.blocks[j] = buf[:pos]
		job.sm.DataLens[j] = pos
	}
	if pl.capacity > 0 {
		// Parity arenas need no zeroing: Encode fully overwrites them
		// (multiply into, then multiply-accumulate). The rented arenas are
		// then the n shards at capacity, in order.
		for j := p.K; j < p.N; j++ {
			job.blocks[j] = rent(pl.capacity)
		}
		if err := s.coder.Encode(job.bufs); err != nil {
			return fail(fmt.Errorf("store: encoding stripe %d: %w", si, err))
		}
	} else {
		for j := p.K; j < p.N; j++ {
			job.blocks[j] = []byte{}
		}
	}
	for j, b := range job.blocks {
		job.sm.BlockIDs[j] = blockID(meta.Name, meta.Epoch, si, j)
		job.sm.Checksums[j] = cluster.Checksum(b)
	}
	return job, nil
}

// stripeBytes is a stripe's arena footprint, known from its plan before a
// byte is rented: n arenas of its capacity's size class (buildStripe).
func stripeBytes(pl stripePlan, n int) int64 {
	return int64(n * bufpool.Cap(int(pl.capacity)))
}

// streamStripes runs the bounded-memory half of Put: a builder goroutine
// gathers, encodes and checksums round i+1 while this goroutine scatters
// round i over an unbuffered channel. A round is a run of consecutive
// stripes whose arenas together fit in the plan's largest stripe — a budget
// derived from the plans, at most rpc.MaxBatchOps stripes — so at most two
// largest stripes of pooled arenas are resident regardless of object size,
// while a run of small stripes shares one frame per node (placeRound). The
// rounds are scattered one at a time in stripe order — placement draws one
// candidate permutation per stripe from the store's seeded rng, so the node
// assignment is a function of Options.Seed whatever the source. On any
// failure the pipeline drains, every arena is retired, and the caller rolls
// back the placed blocks.
func (s *Store) streamStripes(ctx context.Context, sp *trace.Span, meta *ObjectMeta, src *putSource, plans []stripePlan, stats *PutStats, placed *[]placedBlock) error {
	var g memGauge
	n := s.opts.Params.N
	var budget int64
	for _, pl := range plans {
		budget = max(budget, stripeBytes(pl, n))
	}
	release := func(round []*stripeJob) {
		for _, job := range round {
			job.release(&g)
		}
	}
	aff := newAffinity(meta, len(plans), s.opts.Params.K, s.client.NumNodes())
	rounds := make(chan []*stripeJob) // unbuffered: builder runs ≤1 round ahead
	stop := make(chan struct{})
	var buildErr error // the builder's, read once it has closed rounds
	go func() {
		defer close(rounds)
		var round []*stripeJob
		var held int64 // the round's arena bytes
		send := func() bool {
			select {
			case rounds <- round:
				round, held = nil, 0
				return true
			case <-stop:
				release(round)
				return false
			}
		}
		for si := range plans {
			fits := held+stripeBytes(plans[si], n) <= budget && len(round) < rpc.MaxBatchOps
			if len(round) > 0 && !fits && !send() {
				return
			}
			if buildErr = ctx.Err(); buildErr != nil {
				release(round)
				return
			}
			job, err := s.buildStripe(meta, src, si, plans[si], &g)
			if err != nil {
				buildErr = err
				release(round)
				return
			}
			round = append(round, job)
			held += job.bytes
		}
		if len(round) > 0 {
			send()
		}
	}()
	var failed error
	for round := range rounds {
		if failed == nil {
			for _, job := range round {
				stats.MaxStripeBytes = max(stats.MaxStripeBytes, uint64(job.bytes))
			}
			// Every call placeRound made has ended, a cancelled one too, so
			// nothing reads the arenas once it returns, whatever the outcome.
			if failed = s.placeRound(ctx, sp, meta, aff, round, placed); failed != nil {
				close(stop)
			} else {
				for _, job := range round {
					for _, b := range job.blocks {
						stats.StoredBytes += uint64(len(b))
					}
					meta.Stripes = append(meta.Stripes, job.sm)
				}
			}
		}
		release(round)
	}
	if failed == nil {
		failed = buildErr
	}
	stats.PeakPipelineBytes = uint64(g.peak.Load())
	return failed
}
