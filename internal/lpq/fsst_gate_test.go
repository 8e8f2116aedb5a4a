package lpq_test

import (
	"math/rand"
	"os"
	"testing"

	"github.com/fusionstore/fusion/internal/bitmap"
	"github.com/fusionstore/fusion/internal/colenc"
	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/tpch"
)

// storedChunk is a chunk as a node holds it: metadata and bytes.
type storedChunk struct {
	m   lpq.ChunkMeta
	raw []byte
}

// commentChunk returns the l_comment chunk of one lineitem row group at the
// repository benchmark's scale, written under opts.
func commentChunk(tb testing.TB, opts lpq.WriterOptions) storedChunk {
	cfg := tpch.DefaultConfig()
	cfg.RowGroups, cfg.Writer = 1, opts
	data, err := tpch.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	f, err := lpq.Open(data)
	if err != nil {
		tb.Fatal(err)
	}
	raw, err := f.ChunkBytes(0, tpch.ColComment)
	if err != nil {
		tb.Fatal(err)
	}
	return storedChunk{f.Footer().RowGroups[0].Chunks[tpch.ColComment], raw}
}

// commentForms returns l_comment as the default writer stores it (FSST) and
// as plain pages under Snappy (the form before FSST), with a selection of
// half its rows, drawn at random.
func commentForms(tb testing.TB) (fsstForm, snappyForm storedChunk, half *bitmap.Bitmap) {
	fsstForm = commentChunk(tb, lpq.DefaultWriterOptions())
	snappyForm = commentChunk(tb, lpq.WriterOptions{Compress: true, DisableDict: true})
	if fsstForm.m.Encoding != colenc.FSST || snappyForm.m.Encoding != colenc.Plain || !snappyForm.m.Compressed {
		tb.Fatalf("l_comment written as %v and as %v (compressed=%v), want FSST and Snappy-compressed plain",
			fsstForm.m.Encoding, snappyForm.m.Encoding, snappyForm.m.Compressed)
	}
	rng := rand.New(rand.NewSource(50))
	half = bitmap.New(fsstForm.m.NumValues)
	for i := 0; i < half.Len(); i++ {
		if rng.Intn(2) == 0 {
			half.Set(i)
		}
	}
	return fsstForm, snappyForm, half
}

var gatherSink int

// benchOpenGather times what a coordinator pays for a fetched chunk: open it
// (CRC, Snappy where it was kept, page directory), gather the selected rows
// into result strings, release it. MB/s is of the chunk's plain bytes.
func benchOpenGather(b *testing.B, c storedChunk, sel *bitmap.Bitmap) {
	b.SetBytes(int64(c.m.RawSize))
	for i := 0; i < b.N; i++ {
		ch, err := lpq.OpenChunk(lpq.String, c.m, c.raw)
		if err != nil {
			b.Fatal(err)
		}
		col, err := ch.Gather(sel)
		if err != nil {
			b.Fatal(err)
		}
		ch.Release()
		gatherSink += col.Len()
	}
}

// BenchmarkFSSTGather is open plus gather of half the rows of l_comment, as
// FSST and as Snappy-compressed plain pages.
func BenchmarkFSSTGather(b *testing.B) {
	fsstForm, snappyForm, half := commentForms(b)
	b.Run("fsst", func(b *testing.B) { benchOpenGather(b, fsstForm, half) })
	b.Run("snappy", func(b *testing.B) { benchOpenGather(b, snappyForm, half) })
}

// TestFSSTGatherSpeedGate is the CI floor for FSST on the column it is built
// for: open plus gather of half the rows of l_comment must run at least
// fsstGatherFloor times as fast from the FSST chunk as from the same strings
// in Snappy-compressed plain pages. The floor is 20% below the median of 20
// runs of this gate (1.63x on a 2-core 2.1 GHz Xeon, range 1.48-1.78x). The
// best of three runs of each side is compared, so one descheduled run does
// not decide it. It only runs when FUSION_FSST_GATE=1 so ordinary `go test
// ./...` runs stay timing-independent.
func TestFSSTGatherSpeedGate(t *testing.T) {
	if os.Getenv("FUSION_FSST_GATE") == "" {
		t.Skip("set FUSION_FSST_GATE=1 to run the FSST gather gate")
	}
	const fsstGatherFloor = 1.31
	fsstForm, snappyForm, half := commentForms(t)
	var best [2]testing.BenchmarkResult
	for i := 0; i < 3; i++ {
		for j, c := range []storedChunk{fsstForm, snappyForm} {
			r := testing.Benchmark(func(b *testing.B) { benchOpenGather(b, c, half) })
			if r.NsPerOp() <= 0 {
				t.Fatalf("degenerate benchmark result: %v", r)
			}
			if i == 0 || r.NsPerOp() < best[j].NsPerOp() {
				best[j] = r
			}
		}
	}
	fast, slow := best[0], best[1]
	speedup := float64(slow.NsPerOp()) / float64(fast.NsPerOp())
	t.Logf("l_comment, half the rows: FSST %d bytes in %.2f ms, Snappy %d bytes in %.2f ms, speedup %.2fx (floor %.2fx)",
		fsstForm.m.Size, float64(fast.NsPerOp())/1e6, snappyForm.m.Size, float64(slow.NsPerOp())/1e6, speedup, fsstGatherFloor)
	if speedup < fsstGatherFloor {
		t.Fatalf("FSST open plus gather is only %.2fx Snappy's, floor %.2fx", speedup, fsstGatherFloor)
	}
}
