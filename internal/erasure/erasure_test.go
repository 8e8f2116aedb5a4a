package erasure

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		p  Params
		ok bool
	}{
		{RS96, true},
		{RS1410, true},
		{Params{N: 2, K: 1}, true},
		{Params{N: 1, K: 1}, false},
		{Params{N: 6, K: 9}, false},
		{Params{N: 300, K: 10}, false},
		{Params{N: 3, K: 0}, false},
	}
	for _, c := range cases {
		err := c.p.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%v: Validate() = %v, want ok=%v", c.p, err, c.ok)
		}
	}
}

func TestParamsString(t *testing.T) {
	if RS96.String() != "RS(9,6)" {
		t.Fatalf("String() = %q", RS96.String())
	}
}

func TestEncodeVerifyRoundTrip(t *testing.T) {
	c := MustCoder(RS96)
	data := make([]byte, 6*1024)
	rng := rand.New(rand.NewSource(1))
	rng.Read(data)
	shards := c.Split(data)
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	ok, err := c.Verify(shards)
	if err != nil || !ok {
		t.Fatalf("Verify = %v, %v; want true", ok, err)
	}
	// Corrupt one parity byte: verify must fail.
	shards[8][17] ^= 0xff
	ok, err = c.Verify(shards)
	if err != nil || ok {
		t.Fatalf("Verify after corruption = %v, %v; want false", ok, err)
	}
}

func TestSplitJoin(t *testing.T) {
	c := MustCoder(RS96)
	for _, n := range []int{0, 1, 5, 6, 7, 100, 6143, 6144, 6145} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i * 7)
		}
		shards := c.Split(data)
		if len(shards) != 9 {
			t.Fatalf("Split must return 9 shards, got %d", len(shards))
		}
		got, err := c.Join(shards, n)
		if err != nil {
			t.Fatalf("Join(%d): %v", n, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("Join(%d) round trip failed", n)
		}
	}
}

// reconstructCase runs one erase-and-reconstruct cycle, erasing the given
// shard indexes, and checks the data comes back intact.
func reconstructCase(t *testing.T, p Params, erase []int) {
	t.Helper()
	c := MustCoder(p)
	data := make([]byte, p.K*512+13)
	rng := rand.New(rand.NewSource(int64(len(erase) + p.N)))
	rng.Read(data)
	shards := c.Split(data)
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	orig := make([][]byte, len(shards))
	for i, s := range shards {
		orig[i] = bytes.Clone(s)
	}
	for _, e := range erase {
		shards[e] = nil
	}
	if err := c.Reconstruct(shards); err != nil {
		t.Fatalf("Reconstruct(erase %v): %v", erase, err)
	}
	for i := range shards {
		if !bytes.Equal(shards[i], orig[i]) {
			t.Fatalf("shard %d differs after reconstruction (erased %v)", i, erase)
		}
	}
	got, err := c.Join(shards, len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("data mismatch after reconstruction: %v", err)
	}
}

func TestReconstructAllPatterns(t *testing.T) {
	// RS(9,6): every single, double and triple erasure must be recoverable.
	for i := 0; i < 9; i++ {
		reconstructCase(t, RS96, []int{i})
		for j := i + 1; j < 9; j++ {
			reconstructCase(t, RS96, []int{i, j})
			for l := j + 1; l < 9; l++ {
				reconstructCase(t, RS96, []int{i, j, l})
			}
		}
	}
}

func TestReconstructRS1410(t *testing.T) {
	reconstructCase(t, RS1410, []int{0, 5, 10, 13})
	reconstructCase(t, RS1410, []int{10, 11, 12, 13}) // all parity
	reconstructCase(t, RS1410, []int{0, 1, 2, 3})     // leading data
}

func TestReconstructTooManyLost(t *testing.T) {
	c := MustCoder(RS96)
	shards := c.Split(make([]byte, 600))
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	for _, e := range []int{0, 1, 2, 3} { // 4 > n-k = 3
		shards[e] = nil
	}
	if err := c.Reconstruct(shards); err == nil {
		t.Fatal("Reconstruct must fail with 4 losses under RS(9,6)")
	}
}

func TestReconstructDataOnly(t *testing.T) {
	c := MustCoder(RS96)
	data := []byte("fusion reconstructs only what it needs for a degraded read")
	shards := c.Split(data)
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	shards[2] = nil // data
	shards[7] = nil // parity
	if err := c.ReconstructData(shards); err != nil {
		t.Fatal(err)
	}
	if shards[7] != nil {
		t.Fatal("ReconstructData must not rebuild parity shards")
	}
	got, err := c.Join(shards, len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("data mismatch: %v", err)
	}
}

func TestReconstructNoOpWhenComplete(t *testing.T) {
	c := MustCoder(RS96)
	shards := c.Split([]byte("complete"))
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	if err := c.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	if err := c.ReconstructData(shards); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeShapeErrors(t *testing.T) {
	c := MustCoder(RS96)
	if err := c.Encode(make([][]byte, 5)); err == nil {
		t.Fatal("Encode must reject wrong shard count")
	}
	shards := c.Split([]byte("x"))
	shards[3] = make([]byte, 99)
	if err := c.Encode(shards); err == nil {
		t.Fatal("Encode must reject mismatched sizes")
	}
}

// Property: for random data, a random code, and any random erasure of at most
// n−k shards, reconstruction recovers the data exactly.
func TestReconstructProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(10)
		n := k + 1 + r.Intn(6)
		c := MustCoder(Params{N: n, K: k})
		data := make([]byte, 1+r.Intn(4096))
		r.Read(data)
		shards := c.Split(data)
		if err := c.Encode(shards); err != nil {
			return false
		}
		// Erase up to n−k random shards.
		losses := r.Intn(n - k + 1)
		perm := r.Perm(n)
		for _, e := range perm[:losses] {
			shards[e] = nil
		}
		if err := c.Reconstruct(shards); err != nil {
			return false
		}
		got, err := c.Join(shards, len(data))
		return err == nil && bytes.Equal(got, data)
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeRS96_1MB(b *testing.B) {
	c := MustCoder(RS96)
	data := make([]byte, 6<<20)
	rand.New(rand.NewSource(1)).Read(data)
	shards := c.Split(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Encode(shards); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstructRS96(b *testing.B) {
	c := MustCoder(RS96)
	data := make([]byte, 6<<20)
	rand.New(rand.NewSource(1)).Read(data)
	shards := c.Split(data)
	if err := c.Encode(shards); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		saved0, saved4 := shards[0], shards[4]
		shards[0], shards[4] = nil, nil
		if err := c.Reconstruct(shards); err != nil {
			b.Fatal(err)
		}
		_ = saved0
		_ = saved4
	}
}
