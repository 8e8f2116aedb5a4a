package store

import (
	"context"
	"errors"
	"fmt"
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
	// CorruptStripes counts complete stripes whose parity did not verify.
	// It is a report only: Scrub never rewrites a block for it.
	CorruptStripes int
	// Repaired counts blocks rewritten by the scrub (with Repair set). A block
	// whose object was overwritten or deleted before its rewrite is not.
	Repaired int
}

// ScrubOptions configure Scrub.
type ScrubOptions struct {
	// Repair rebuilds missing or corrupt blocks from the stripe's survivors
	// and rewrites them; without it the scrub only reports.
	Repair bool
}

// Scrub verifies every stripe of an object: all n blocks are fetched and
// checked against the checksums recorded at write time, and the parity
// relation of each complete stripe is checked (erasure.Coder.Verify). With
// Repair set, each missing or checksum-failing block goes to repairBlock, the
// one writer of rebuilt blocks, at the epoch the scrub read.
//
// A stripe failing Verify is reported, not repaired. Every shard Verify sees
// has matched its write-time CRC, and a rebuilt block must match that same CRC
// to be written, so a rewrite could change a stored byte only under a CRC32C
// collision.
//
// This is the conventional scrubbing companion to §5's recovery procedure.
// Under a traced ctx the span records one child per stripe with its
// block-fetch RPCs, and one per repair.
func (s *Store) Scrub(ctx context.Context, name string, opts ScrubOptions) (*ScrubReport, error) {
	sp, end := s.beginOp(ctx, "Scrub")
	defer end()
	meta, err := s.meta(ctx, sp, name)
	if err != nil {
		return nil, err
	}
	p := s.opts.Params
	report := &ScrubReport{}
	for si := range meta.Stripes {
		ssp := sp.Child("stripe")
		report.Stripes++
		// The same verified fan-out a reconstruction gathers survivors with,
		// over all n blocks. The CRC recorded at write time localizes a bad
		// copy exactly; a block failing it is an erasure, not a parity puzzle.
		shards, errs := s.fanOutStripe(ctx, ssp, meta, si, -1, p.N)
		if err := ctx.Err(); err != nil {
			// Reads the context cut short are not missing blocks: report
			// the deadline, not a stripe of erasures to rebuild.
			ssp.End()
			return report, fmt.Errorf("store: scrubbing %q: %w", name, err)
		}
		var missing []int
		for j, err := range errs {
			if err == nil {
				continue
			}
			if errors.Is(err, errBlockChecksum) {
				report.ChecksumFailures++
			}
			missing = append(missing, j)
		}
		ssp.End()
		report.MissingBlocks += len(missing)
		if len(missing) == 0 {
			ok, err := s.coder.Verify(shards)
			if err != nil {
				return report, fmt.Errorf("store: verifying stripe %d of %q: %w", si, name, err)
			}
			if !ok {
				report.CorruptStripes++
			}
			continue
		}
		if !opts.Repair {
			continue
		}
		for _, j := range missing {
			err := s.repairBlock(ctx, sp, repairItem{Object: name, Epoch: meta.Epoch, Stripe: si, Block: j})
			if errors.Is(err, errStaleRepair) {
				return report, nil // overwritten or deleted since the scrub read it
			}
			if err != nil {
				return report, fmt.Errorf("store: scrubbing %q: %w", name, err)
			}
			report.Repaired++
		}
	}
	return report, nil
}
