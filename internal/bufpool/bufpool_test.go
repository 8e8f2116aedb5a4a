package bufpool

import (
	"bytes"
	"sync"
	"testing"
)

func TestClassFor(t *testing.T) {
	cases := []struct {
		n, cls int
	}{
		{0, -1},
		{-1, -1},
		{1, 0},
		{512, 0},
		{513, 1},
		{1024, 1},
		{1025, 2},
		{1 << 24, numClasses - 1},
		{1<<24 + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.cls {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.cls)
		}
	}
}

func TestGetPutRoundTrip(t *testing.T) {
	for _, n := range []int{1, 100, 512, 513, 4096, 1 << 20} {
		b := GetLen(n)
		if len(b) != n {
			t.Fatalf("GetLen(%d): len %d", n, len(b))
		}
		if cap(b) < n {
			t.Fatalf("GetLen(%d): cap %d", n, cap(b))
		}
		Put(b)
	}
	// Out-of-range sizes still work, just unpooled.
	big := GetLen(1<<24 + 1)
	if len(big) != 1<<24+1 {
		t.Fatalf("oversize GetLen: len %d", len(big))
	}
	Put(big) // dropped (non-power-of-two cap), must not panic
}

func TestPutForeignBufferDropped(t *testing.T) {
	// A foreign buffer with a non-class capacity must not enter a pool: a
	// later Get of its class could otherwise return less capacity than the
	// class promises.
	Put(make([]byte, 700))
	b := Get(1024)
	if cap(b) < 1024 {
		t.Fatalf("Get(1024) returned cap %d after foreign Put", cap(b))
	}
}

func TestPoison(t *testing.T) {
	prev := SetPoison(true)
	defer SetPoison(prev)
	b := GetLen(512)
	for i := range b {
		b[i] = 0x42
	}
	alias := b
	Put(b)
	if !Poisoned(alias) {
		t.Fatal("buffer not poisoned after Put")
	}
	live := []byte{0x42, 0x42}
	if Poisoned(live) {
		t.Fatal("live buffer misreported as poisoned")
	}
}

func TestConcurrentGetPut(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed byte) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b := GetLen(1 << (9 + i%8))
				for j := range b {
					b[j] = seed
				}
				for j := range b {
					if b[j] != seed {
						t.Errorf("buffer mutated while owned")
						return
					}
				}
				Put(b)
			}
		}(byte(g))
	}
	wg.Wait()
}

func BenchmarkGetPut(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := GetLen(64 << 10)
		Put(buf)
	}
}

// TestOversizedBuffersDropped: a power-of-two buffer above the largest class
// — what Get hands out for such a size, and what ReadAppend's doubling
// reaches past 16 MiB — is dropped by Put, not filed under a class that does
// not exist.
func TestOversizedBuffersDropped(t *testing.T) {
	for _, n := range []int{32 << 20, 64 << 20} {
		b := Get(n)
		if cap(b) < n {
			t.Fatalf("Get(%d): cap %d", n, cap(b))
		}
		Put(b)
		Put(make([]byte, n))
	}
	const n = 40 << 20
	src := bytes.Repeat([]byte{0x5a}, n)
	got, err := ReadAppend(bytes.NewReader(src), nil, n, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("ReadAppend of 40 MiB returned other bytes")
	}
	Put(got)
}

// TestCapMatchesGet: Cap predicts the capacity Get hands out, pooled or not
// — what the streaming Put sizes its rounds by before renting anything.
func TestCapMatchesGet(t *testing.T) {
	for _, n := range []int{0, 1, 511, 512, 513, 4096, 100 << 10, 1 << 24, 1<<24 + 1} {
		b := Get(n)
		if got := Cap(n); got != cap(b) {
			t.Errorf("Cap(%d) = %d, Get(%d) has cap %d", n, got, n, cap(b))
		}
		Put(b)
	}
}
