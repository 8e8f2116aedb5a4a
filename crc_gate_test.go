package fusion_test

import (
	"os"
	"testing"

	"github.com/fusionstore/fusion/internal/store"
)

// benchGet measures the full-object Get path under the given options.
func benchGet(b *testing.B, opts store.Options) {
	s, data := benchStore(b, opts)
	if _, err := s.Put("lineitem", data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get("lineitem", 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetVerified is BenchmarkGetFull with the default end-to-end
// checksum verification; BenchmarkGetUnverified disables it. Their ratio is
// the read-path cost of integrity checking, gated in CI.
func BenchmarkGetVerified(b *testing.B) { benchGet(b, store.FusionOptions()) }

func BenchmarkGetUnverified(b *testing.B) {
	opts := store.FusionOptions()
	opts.SkipChecksumVerify = true
	benchGet(b, opts)
}

// TestChecksumOverheadGate is the CI read-path guard: it benchmarks Get with
// checksum verification on and off and fails when verification costs more
// than 5%. It only runs when FUSION_CRC_GATE=1 so ordinary `go test ./...`
// runs stay timing-independent.
func TestChecksumOverheadGate(t *testing.T) {
	if os.Getenv("FUSION_CRC_GATE") == "" {
		t.Skip("set FUSION_CRC_GATE=1 to run the checksum overhead gate")
	}
	const limitPct = 5.0
	off := testing.Benchmark(BenchmarkGetUnverified)
	on := testing.Benchmark(BenchmarkGetVerified)
	if off.NsPerOp() <= 0 || on.NsPerOp() <= 0 {
		t.Fatalf("degenerate benchmark results: on %v, off %v", on, off)
	}
	overhead := (float64(on.NsPerOp())/float64(off.NsPerOp()) - 1) * 100
	t.Logf("Get verified %v/op, unverified %v/op, checksum overhead %.2f%% (budget %.1f%%)",
		on, off, overhead, limitPct)
	if overhead > limitPct {
		t.Fatalf("checksum verification costs %.2f%% on the read path, budget %.1f%%", overhead, limitPct)
	}
}
