package erasure

import (
	"bytes"
	"math/rand"
	"os"
	"testing"
	"testing/quick"
)

// randShards builds n shards of the given size; the first k hold random
// data, the rest are zeroed parity slots.
func randShards(rng *rand.Rand, p Params, size int) [][]byte {
	shards := make([][]byte, p.N)
	for i := range shards {
		shards[i] = make([]byte, size)
		if i < p.K {
			rng.Read(shards[i])
		}
	}
	return shards
}

func cloneShards(shards [][]byte) [][]byte {
	out := make([][]byte, len(shards))
	for i, s := range shards {
		if s != nil {
			out[i] = append([]byte(nil), s...)
		}
	}
	return out
}

// TestEncodeMatchesNaive is the property test of the tentpole kernels: over
// random (n, k), shard sizes with odd tails, and payloads, the table-driven
// parallel Encode must be bit-identical to the retained seed kernel.
func TestEncodeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(12)
		n := k + 1 + r.Intn(6)
		// Sizes straddle the block granule and include odd tails.
		size := 1 + r.Intn(3*blockSize)
		c := MustCoder(Params{N: n, K: k})
		shards := randShards(r, c.params, size)
		naive := cloneShards(shards)
		if err := c.Encode(shards); err != nil {
			t.Logf("Encode: %v", err)
			return false
		}
		if err := c.encodeNaive(naive); err != nil {
			t.Logf("encodeNaive: %v", err)
			return false
		}
		for i := range shards {
			if !bytes.Equal(shards[i], naive[i]) {
				t.Logf("RS(%d,%d) size %d: shard %d differs", n, k, size, i)
				return false
			}
		}
		ok, err := c.Verify(shards)
		if err != nil || !ok {
			t.Logf("Verify after Encode: ok=%v err=%v", ok, err)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestReconstructMatchesOriginal checks that across random erasure patterns
// (up to n−k lost shards, data and parity alike) the parallel Reconstruct
// restores exactly the encoded stripe.
func TestReconstructMatchesOriginal(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(12)
		n := k + 1 + r.Intn(6)
		size := 1 + r.Intn(3*blockSize)
		c := MustCoder(Params{N: n, K: k})
		shards := randShards(r, c.params, size)
		if err := c.Encode(shards); err != nil {
			t.Logf("Encode: %v", err)
			return false
		}
		original := cloneShards(shards)
		lost := 1 + r.Intn(n-k)
		damaged := cloneShards(shards)
		for _, i := range r.Perm(n)[:lost] {
			damaged[i] = nil
		}
		if err := c.Reconstruct(damaged); err != nil {
			t.Logf("Reconstruct: %v", err)
			return false
		}
		for i := range damaged {
			if !bytes.Equal(damaged[i], original[i]) {
				t.Logf("RS(%d,%d) size %d lost %d: shard %d differs", n, k, size, lost, i)
				return false
			}
		}
		// Data-only reconstruction must restore the data shards and leave
		// missing parity nil.
		dataOnly := cloneShards(shards)
		killed := r.Perm(n)[:lost]
		for _, i := range killed {
			dataOnly[i] = nil
		}
		if err := c.ReconstructData(dataOnly); err != nil {
			t.Logf("ReconstructData: %v", err)
			return false
		}
		for d := 0; d < k; d++ {
			if !bytes.Equal(dataOnly[d], original[d]) {
				t.Logf("RS(%d,%d): data shard %d differs after ReconstructData", n, k, d)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDecodePlanCacheReuse checks that repeated reconstructions of the same
// erasure pattern hit one cached plan.
func TestDecodePlanCacheReuse(t *testing.T) {
	c := MustCoder(RS96)
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 5; i++ {
		shards := randShards(rng, c.params, 4096)
		if err := c.Encode(shards); err != nil {
			t.Fatal(err)
		}
		want := cloneShards(shards)
		shards[1], shards[7] = nil, nil
		if err := c.Reconstruct(shards); err != nil {
			t.Fatal(err)
		}
		for j := range shards {
			if !bytes.Equal(shards[j], want[j]) {
				t.Fatalf("iteration %d: shard %d differs", i, j)
			}
		}
	}
	c.mu.RLock()
	plans := len(c.decCache)
	c.mu.RUnlock()
	if plans != 1 {
		t.Fatalf("decode-plan cache holds %d plans, want 1", plans)
	}
}

// TestCoderKernelsAgree encodes the same stripes through the nibble coder
// and the naive encoder (the oracle) and requires bit-identical output — the
// seam-level companion to the gf256 property tests.
func TestCoderKernelsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(12)
		n := k + 1 + r.Intn(6)
		size := 1 + r.Intn(2*blockSize)
		p := Params{N: n, K: k}
		c := MustCoder(p)
		a := randShards(r, p, size)
		bShards := cloneShards(a)
		if err := c.encodeNaive(a); err != nil {
			t.Logf("naive Encode: %v", err)
			return false
		}
		if err := c.Encode(bShards); err != nil {
			t.Logf("nibble Encode: %v", err)
			return false
		}
		for i := range a {
			if !bytes.Equal(a[i], bShards[i]) {
				t.Logf("RS(%d,%d) size %d: shard %d differs across kernels", n, k, size, i)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func benchEncode(b *testing.B, p Params, shardSize int, naive bool) {
	benchEncodeCoder(b, MustCoder(p), p, shardSize, naive)
}

func benchEncodeCoder(b *testing.B, c *Coder, p Params, shardSize int, naive bool) {
	shards := make([][]byte, p.N)
	rng := rand.New(rand.NewSource(45))
	for i := range shards {
		shards[i] = make([]byte, shardSize)
		if i < p.K {
			rng.Read(shards[i])
		}
	}
	b.SetBytes(int64(p.K * shardSize))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if naive {
			err = c.encodeNaive(shards)
		} else {
			err = c.Encode(shards)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeRS96 / RS1410 measure the default (nibble split-table)
// parallel kernels on 1 MiB shards; the Naive variants pin the seed kernel
// the production one is tested against.
func BenchmarkEncodeRS96(b *testing.B)        { benchEncode(b, RS96, 1<<20, false) }
func BenchmarkEncodeRS1410(b *testing.B)      { benchEncode(b, RS1410, 1<<20, false) }
func BenchmarkEncodeNaiveRS96(b *testing.B)   { benchEncode(b, RS96, 1<<20, true) }
func BenchmarkEncodeNaiveRS1410(b *testing.B) { benchEncode(b, RS1410, 1<<20, true) }

// TestKernelEncodeGate is the CI floor for the production GF(2^8) kernel:
// RS(9,6) encode must run at least 3 times faster (≈24 measured) than the
// naive log/exp encoder, so a regression that silently falls back to a slow
// multiply path fails CI. It only runs when FUSION_KERNEL_GATE=1 so ordinary
// `go test ./...` runs stay timing-independent.
func TestKernelEncodeGate(t *testing.T) {
	if os.Getenv("FUSION_KERNEL_GATE") == "" {
		t.Skip("set FUSION_KERNEL_GATE=1 to run the kernel encode gate")
	}
	const floor = 3.0
	naive := testing.Benchmark(BenchmarkEncodeNaiveRS96)
	nibble := testing.Benchmark(BenchmarkEncodeRS96)
	if naive.NsPerOp() <= 0 || nibble.NsPerOp() <= 0 {
		t.Fatalf("degenerate benchmark results: nibble %v, naive %v", nibble, naive)
	}
	speedup := float64(naive.NsPerOp()) / float64(nibble.NsPerOp())
	mbps := func(r testing.BenchmarkResult) float64 {
		return float64(r.Bytes) * float64(r.N) / 1e6 / r.T.Seconds()
	}
	t.Logf("RS(9,6) encode: nibble %.0f MB/s, naive %.0f MB/s, speedup %.2fx (floor %.2fx)",
		mbps(nibble), mbps(naive), speedup, floor)
	if speedup < floor {
		t.Fatalf("nibble kernel is only %.2fx the naive encoder, floor %.2fx", speedup, floor)
	}
}

func BenchmarkReconstruct(b *testing.B) {
	const shardSize = 1 << 20
	c := MustCoder(RS96)
	rng := rand.New(rand.NewSource(46))
	shards := make([][]byte, c.params.N)
	for i := range shards {
		shards[i] = make([]byte, shardSize)
		if i < c.params.K {
			rng.Read(shards[i])
		}
	}
	if err := c.Encode(shards); err != nil {
		b.Fatal(err)
	}
	work := make([][]byte, len(shards))
	b.SetBytes(int64(c.params.K * shardSize))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, shards)
		work[0], work[3], work[8] = nil, nil, nil
		if err := c.Reconstruct(work); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerify(b *testing.B) {
	const shardSize = 1 << 20
	c := MustCoder(RS96)
	rng := rand.New(rand.NewSource(47))
	shards := make([][]byte, c.params.N)
	for i := range shards {
		shards[i] = make([]byte, shardSize)
		if i < c.params.K {
			rng.Read(shards[i])
		}
	}
	if err := c.Encode(shards); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(c.params.K * shardSize))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := c.Verify(shards)
		if err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
}
