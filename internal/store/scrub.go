package store

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/trace"
)

// ScrubReport summarizes one object's integrity scrub.
type ScrubReport struct {
	// Stripes is the number of stripes examined.
	Stripes int
	// MissingBlocks counts blocks that were unreadable (node down or
	// block gone).
	MissingBlocks int
	// ChecksumFailures counts blocks that failed CRC verification — the
	// node refusing a rotted block at rest, a reply corrupted in flight, or
	// bytes not matching the checksum recorded in the stripe metadata. Such
	// blocks are treated like missing ones for repair purposes.
	ChecksumFailures int
	// CorruptStripes counts stripes whose parity did not verify.
	CorruptStripes int
	// Repaired counts blocks rewritten by the scrub (with Repair set).
	Repaired int
}

// ScrubOptions configure Scrub.
type ScrubOptions struct {
	// Repair rewrites missing or corrupt blocks from the stripe's
	// survivors; without it the scrub only reports.
	Repair bool
}

// Scrub verifies every stripe of an object: all n blocks are fetched,
// zero-extended to the stripe capacity, and the parity relation is checked
// (erasure.Coder.Verify). With Repair set, unreadable blocks are rebuilt
// and rewritten, and corrupt stripes are re-encoded from the chunk data's
// checksummed source of truth where recoverable.
//
// This is the conventional background-scrubbing companion to §5's recovery
// procedure: RS parity detects whole-stripe inconsistency, while per-chunk
// CRCs (lpq) localize which copy is bad.
func (s *Store) Scrub(name string, opts ScrubOptions) (*ScrubReport, error) {
	return s.ScrubContext(context.Background(), name, opts)
}

// ScrubContext is Scrub under a (possibly traced) context: the span records
// one child per stripe with its block-fetch RPCs and any repair writes.
func (s *Store) ScrubContext(ctx context.Context, name string, opts ScrubOptions) (*ScrubReport, error) {
	sp, end := s.beginOp(ctx, "Scrub")
	defer end()
	meta, err := s.meta(ctx, sp, name)
	if err != nil {
		return nil, err
	}
	p := s.opts.Params
	report := &ScrubReport{}
	for si, st := range meta.Stripes {
		ssp := sp.Child("stripe")
		report.Stripes++
		// The same verified fan-out a reconstruction gathers survivors with,
		// read to the end. The CRC recorded at write time localizes a bad copy
		// exactly; a block failing it is an erasure, not a parity puzzle.
		results := s.fanOutStripe(ctx, ssp, meta, si, -1)
		shards := make([][]byte, p.N)
		var missing []int
		for range shards {
			r := <-results
			if r.err == nil {
				shards[r.bin] = padShard(r.data, st.Capacity)
				continue
			}
			if errors.Is(r.err, errBlockChecksum) {
				report.ChecksumFailures++
			}
			missing = append(missing, r.bin)
		}
		// Arrival order → block order: repairs rewrite deterministically.
		slices.Sort(missing)
		ssp.End() // the fetch phase; repair writes charge to the parent
		report.MissingBlocks += len(missing)
		if len(missing) > 0 {
			if !opts.Repair {
				continue
			}
			n, err := s.rebuildLost(ctx, sp, meta, si, shards, missing)
			report.Repaired += n
			if err != nil {
				return report, fmt.Errorf("store: scrubbing %q: %w", name, err)
			}
		}
		ok, err := s.coder.Verify(shards)
		if err != nil {
			return report, fmt.Errorf("store: verifying stripe %d of %q: %w", si, name, err)
		}
		if !ok {
			report.CorruptStripes++
			if opts.Repair {
				n, err := s.repairCorruptStripe(ctx, sp, meta, si, shards)
				if err != nil {
					return report, err
				}
				report.Repaired += n
			}
		}
	}
	return report, nil
}

// repairCorruptStripe localizes corruption within a parity-inconsistent
// stripe using the per-chunk CRCs (FAC mode), then rebuilds the bad blocks
// from the remaining ones. It returns the number of blocks rewritten.
func (s *Store) repairCorruptStripe(ctx context.Context, sp *trace.Span, meta *ObjectMeta, si int, shards [][]byte) (int, error) {
	p := s.opts.Params
	var bad []int
	if meta.Mode == LayoutFAC {
		// A data bin is bad iff any chunk stored in it fails its CRC.
		for itemIdx, loc := range meta.ItemLocs {
			if loc.Stripe != si {
				continue
			}
			it := meta.Items[itemIdx]
			if it.Kind != ItemChunk || it.Size == 0 {
				continue
			}
			ch := meta.Footer.RowGroups[it.RG].Chunks[it.Col]
			raw := shards[loc.Bin][loc.BinOffset : loc.BinOffset+it.Size]
			if _, err := lpq.DecodeChunk(meta.Footer.Columns[it.Col].Type, ch, raw); err != nil && !slices.Contains(bad, loc.Bin) {
				bad = append(bad, loc.Bin)
			}
		}
	}
	if len(bad) == 0 {
		// Cannot localize (parity block corrupt, or fixed layout): assume
		// the parity blocks are stale and re-encode them from data.
		for j := p.K; j < p.N; j++ {
			bad = append(bad, j)
		}
	}
	return s.rebuildLost(ctx, sp, meta, si, shards, bad)
}

// rebuildLost reconstructs the lost blocks of a stripe in place from the rest
// of shards and rewrites each to its node, returning how many it rewrote.
func (s *Store) rebuildLost(ctx context.Context, sp *trace.Span, meta *ObjectMeta, si int, shards [][]byte, lost []int) (int, error) {
	p := s.opts.Params
	if len(lost) > p.N-p.K {
		return 0, fmt.Errorf("%w: stripe %d has %d blocks missing or corrupt, unrecoverable", ErrTooManyFailures, si, len(lost))
	}
	for _, j := range lost {
		shards[j] = nil
	}
	if err := s.coder.Reconstruct(shards); err != nil {
		return 0, fmt.Errorf("store: rebuilding stripe %d: %w", si, err)
	}
	for n, j := range lost {
		data := shards[j]
		if j < p.K {
			data = data[:meta.Stripes[si].DataLens[j]]
		}
		if err := s.rewriteBlock(ctx, sp, meta, si, j, data); err != nil {
			return n, err
		}
	}
	return len(lost), nil
}
