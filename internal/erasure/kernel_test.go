package erasure

import (
	"bytes"
	"math/rand"
	"os"
	"testing"
	"testing/quick"
)

// randShards builds n shards of the given size; the first k hold random
// data, the rest are zeroed parity slots. Each shard is an unaligned
// sub-slice of a larger buffer, so the kernel never sees only the
// allocator's alignment.
func randShards(rng *rand.Rand, p Params, size int) [][]byte {
	shards := make([][]byte, p.N)
	for i := range shards {
		skew := 1 + rng.Intn(31)
		shards[i] = make([]byte, skew+size+3)[skew : skew+size]
		if i < p.K {
			rng.Read(shards[i])
		}
	}
	return shards
}

// randShape draws a code with 1–8 parity rows (one and two register groups
// of the fused kernel) and a shard size straddling the block granule whose
// tail past whole 32-byte columns is 1–31 bytes.
func randShape(r *rand.Rand) (Params, int) {
	k := 1 + r.Intn(12)
	n := k + 1 + r.Intn(8)
	return Params{N: n, K: k}, 32*r.Intn(3*blockSize/32) + 1 + r.Intn(31)
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

// TestEncodeMatchesNaive is the property test of the fused kernel: over
// random (n, k) with 1–8 parity rows, shard sizes with 1–31-byte tails,
// unaligned shards and random payloads, the parallel Encode must be
// bit-identical to the retained seed kernel.
func TestEncodeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, size := randShape(r)
		n, k := p.N, p.K
		c := MustCoder(p)
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
// (up to n−k lost shards, data and parity alike, so 1–8 rebuilt rows) the
// parallel Reconstruct restores exactly the encoded stripe.
func TestReconstructMatchesOriginal(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, size := randShape(r)
		n, k := p.N, p.K
		c := MustCoder(p)
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

// TestCoderKernelsAgree sweeps the fused kernel's shapes deterministically:
// every parity row count 1–8 and every tail 0–31 past whole 32-byte columns,
// over unaligned shards. Encode must match the naive encoder (the oracle)
// bit for bit, Verify must accept the result, and Verify must reject it
// once any single parity byte is flipped.
func TestCoderKernelsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(48))
	for m := 1; m <= 8; m++ {
		for tail := 0; tail < 32; tail++ {
			k := 1 + r.Intn(12)
			p := Params{N: k + m, K: k}
			size := 32*r.Intn(40) + tail
			if size == 0 {
				size = 32
			}
			c := MustCoder(p)
			naive := randShards(r, p, size)
			fused := cloneShards(naive)
			if err := c.encodeNaive(naive); err != nil {
				t.Fatal(err)
			}
			if err := c.Encode(fused); err != nil {
				t.Fatal(err)
			}
			for i := range naive {
				if !bytes.Equal(naive[i], fused[i]) {
					t.Fatalf("RS(%d,%d) size %d: shard %d differs from the oracle", p.N, k, size, i)
				}
			}
			if ok, err := c.Verify(fused); err != nil || !ok {
				t.Fatalf("RS(%d,%d) size %d: Verify rejects a fresh encode: %v", p.N, k, size, err)
			}
			row, at := k+r.Intn(m), r.Intn(size)
			fused[row][at] ^= 1 << r.Intn(8)
			if ok, err := c.Verify(fused); err != nil || ok {
				t.Fatalf("RS(%d,%d) size %d: Verify misses a flipped bit in parity %d byte %d (err %v)",
					p.N, k, size, row, at, err)
			}
		}
	}
}

func benchEncode(b *testing.B, p Params, shardSize int, naive bool) {
	c := MustCoder(p)
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

// BenchmarkEncodeRS96 / RS1410 measure the fused parallel kernel on 1 MiB
// shards; the Naive variants pin the seed kernel the production one is
// tested against.
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
