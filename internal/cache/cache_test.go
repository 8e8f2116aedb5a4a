package cache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/fusionstore/fusion/internal/metrics"
)

func blockKey(obj string, epoch uint64, stripe, bin int) Key {
	return Key{Object: obj, Epoch: epoch, Kind: KindBlock, A: stripe, B: bin}
}

func TestGetPutRoundTrip(t *testing.T) {
	c := New(Config{Bytes: 1 << 20})
	k := blockKey("obj", 1, 0, 2)
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put(k, []byte("hello"), 5)
	v, ok := c.Get(k)
	if !ok || string(v.([]byte)) != "hello" {
		t.Fatalf("Get = %v, %v; want hello", v, ok)
	}
	st := c.Stats()
	if st.Block.Hits != 1 || st.Block.Misses != 1 || st.Fills != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.DataBytes != 5 || st.DataEntries != 1 {
		t.Fatalf("residency = %d bytes / %d entries", st.DataBytes, st.DataEntries)
	}
}

func TestByteBudgetEviction(t *testing.T) {
	// Budget of 80 bytes over 8 shards = 10 bytes per shard. Stuffing many
	// 10-byte entries into one object must keep residency within budget.
	c := New(Config{Bytes: 80})
	for i := 0; i < 100; i++ {
		c.Put(blockKey("obj", 1, i, 0), make([]byte, 10), 10)
	}
	st := c.Stats()
	if st.DataBytes > 80 {
		t.Fatalf("resident bytes %d exceed budget 80", st.DataBytes)
	}
	if st.Evictions == 0 {
		t.Fatal("expected evictions under byte pressure")
	}
}

func TestOversizedValueRejected(t *testing.T) {
	c := New(Config{Bytes: 80}) // 10 bytes per shard
	c.Put(blockKey("obj", 1, 0, 0), make([]byte, 5), 5)
	c.Put(blockKey("obj", 1, 1, 0), make([]byte, 1000), 1000)
	st := c.Stats()
	if st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
	if st.DataBytes > 80 {
		t.Fatalf("oversized value was admitted: %d bytes resident", st.DataBytes)
	}
}

func TestLRUOrder(t *testing.T) {
	// Single-shard-sized keys: force all keys into one shard by brute
	// force — find 3 stripes hashing to the same shard.
	c := New(Config{Bytes: 8 * 20}) // 20 bytes per shard
	sh0 := c.shardOf(blockKey("o", 1, 0, 0))
	stripes := []int{0}
	for i := 1; len(stripes) < 3 && i < 10000; i++ {
		if c.shardOf(blockKey("o", 1, i, 0)) == sh0 {
			stripes = append(stripes, i)
		}
	}
	if len(stripes) < 3 {
		t.Skip("could not find colliding shard keys")
	}
	a, b, d := blockKey("o", 1, stripes[0], 0), blockKey("o", 1, stripes[1], 0), blockKey("o", 1, stripes[2], 0)
	c.Put(a, []byte("a"), 10)
	c.Put(b, []byte("b"), 10)
	c.Get(a)                  // a is now MRU
	c.Put(d, []byte("d"), 10) // evicts b (LRU)
	if _, ok := c.Get(b); ok {
		t.Fatal("expected LRU entry b evicted")
	}
	if _, ok := c.Get(a); !ok {
		t.Fatal("recently used entry a evicted out of order")
	}
	if _, ok := c.Get(d); !ok {
		t.Fatal("fresh entry d missing")
	}
}

func TestInvalidateObjectByEpoch(t *testing.T) {
	c := New(Config{Bytes: 1 << 20})
	for stripe := 0; stripe < 4; stripe++ {
		c.Put(blockKey("obj", 1, stripe, 0), []byte("old"), 3)
		c.Put(blockKey("obj", 2, stripe, 0), []byte("new"), 3)
	}
	c.Put(blockKey("other", 1, 0, 0), []byte("x"), 1)

	dropped := c.InvalidateObject("obj", 2)
	if dropped != 4 {
		t.Fatalf("dropped = %d, want 4 (epoch-1 entries only)", dropped)
	}
	for stripe := 0; stripe < 4; stripe++ {
		if _, ok := c.Get(blockKey("obj", 1, stripe, 0)); ok {
			t.Fatalf("stale epoch-1 entry stripe %d survived invalidation", stripe)
		}
		if _, ok := c.Get(blockKey("obj", 2, stripe, 0)); !ok {
			t.Fatalf("current epoch-2 entry stripe %d was dropped", stripe)
		}
	}
	if _, ok := c.Get(blockKey("other", 1, 0, 0)); !ok {
		t.Fatal("unrelated object was invalidated")
	}

	// keepEpoch 0 (Delete tombstone) drops everything for the object.
	if got := c.InvalidateObject("obj", 0); got != 4 {
		t.Fatalf("tombstone dropped = %d, want 4", got)
	}
	if st := c.Stats(); st.DataEntries != 1 {
		t.Fatalf("entries after tombstone = %d, want 1", st.DataEntries)
	}
}

func TestMetaTierBound(t *testing.T) {
	c := New(Config{Bytes: 0, MetaEntries: 4})
	for i := 0; i < 10; i++ {
		c.PutMeta(fmt.Sprintf("obj%d", i), i)
	}
	st := c.Stats()
	if st.Meta.Entries != 4 {
		t.Fatalf("meta entries = %d, want 4", st.Meta.Entries)
	}
	if st.Meta.Evictions != 6 {
		t.Fatalf("meta evictions = %d, want 6", st.Meta.Evictions)
	}
	// Most recent entries survive.
	if _, ok := c.GetMeta("obj9"); !ok {
		t.Fatal("most recent meta entry evicted")
	}
	if _, ok := c.GetMeta("obj0"); ok {
		t.Fatal("oldest meta entry survived a full wrap")
	}
	if names := c.MetaNames(); len(names) != 4 {
		t.Fatalf("MetaNames = %v, want 4 entries", names)
	}
	c.DeleteMeta("obj9")
	if _, ok := c.GetMeta("obj9"); ok {
		t.Fatal("deleted meta entry still present")
	}
}

func TestDisabledDataTier(t *testing.T) {
	c := New(Config{Bytes: 0})
	k := blockKey("obj", 1, 0, 0)
	c.Put(k, []byte("x"), 1)
	if _, ok := c.Get(k); ok {
		t.Fatal("disabled data tier served a hit")
	}
	// Meta tier still works with data tier disabled.
	c.PutMeta("obj", 42)
	if v, ok := c.GetMeta("obj"); !ok || v.(int) != 42 {
		t.Fatal("meta tier broken when data tier disabled")
	}
}

func TestSingleflightDedup(t *testing.T) {
	c := New(Config{Bytes: 1 << 20})
	const n = 32
	var executions atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, _ := c.Do("key", func() (any, error) {
				<-gate // hold the leader until all callers have piled up
				executions.Add(1)
				return "value", nil
			})
			if err != nil {
				t.Errorf("Do error: %v", err)
			}
			results[i] = v
		}(i)
	}
	// Let followers enqueue behind the leader, then release it. The sleep-free
	// way to guarantee pile-up is to wait until dedups+1 goroutines arrived,
	// but the leader blocks on gate so followers must join it.
	for c.Stats().FlightDedups < n-1 {
		// Spin until all followers have registered against the in-flight call.
	}
	close(gate)
	wg.Wait()

	if got := executions.Load(); got != 1 {
		t.Fatalf("fn executed %d times, want exactly 1", got)
	}
	for i, v := range results {
		if v != "value" {
			t.Fatalf("caller %d got %v", i, v)
		}
	}
	st := c.Stats()
	if st.FlightLeaders != 1 || st.FlightDedups != n-1 {
		t.Fatalf("flight stats leaders=%d dedups=%d, want 1/%d", st.FlightLeaders, st.FlightDedups, n-1)
	}
}

func TestSingleflightErrorShared(t *testing.T) {
	c := New(Config{Bytes: 1 << 20})
	boom := errors.New("boom")
	_, err, _ := c.Do("k", func() (any, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// A later call re-executes (failed calls are not cached).
	v, err, _ := c.Do("k", func() (any, error) { return 7, nil })
	if err != nil || v.(int) != 7 {
		t.Fatalf("retry after error = %v, %v", v, err)
	}
}

func TestNilCacheSafe(t *testing.T) {
	var c *Cache
	k := blockKey("obj", 1, 0, 0)
	c.Put(k, []byte("x"), 1)
	if _, ok := c.Get(k); ok {
		t.Fatal("nil cache hit")
	}
	c.Invalidate(k)
	c.InvalidateObject("obj", 0)
	c.PutMeta("obj", 1)
	if _, ok := c.GetMeta("obj"); ok {
		t.Fatal("nil cache meta hit")
	}
	c.DeleteMeta("obj")
	if names := c.MetaNames(); names != nil {
		t.Fatal("nil cache MetaNames non-nil")
	}
	c.CountDecode()
	v, err, shared := c.Do("k", func() (any, error) { return 1, nil })
	if v.(int) != 1 || err != nil || shared {
		t.Fatal("nil cache Do must run fn directly")
	}
	if st := c.Stats(); st != (metrics.CacheStats{}) {
		t.Fatal("nil cache stats must be zero")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(Config{Bytes: 1 << 12, MetaEntries: 8})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := blockKey(fmt.Sprintf("o%d", i%3), uint64(i%2+1), i%16, g)
				c.Put(k, []byte{byte(i)}, 64)
				c.Get(k)
				if i%50 == 0 {
					c.InvalidateObject(k.Object, 2)
				}
				c.PutMeta(k.Object, i)
				c.GetMeta(k.Object)
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.DataBytes > 1<<12 {
		t.Fatalf("budget exceeded after concurrent churn: %d", st.DataBytes)
	}
}

func TestHitRate(t *testing.T) {
	var zero metrics.CacheTier
	if zero.HitRate() != 0 {
		t.Fatal("zero tier hit rate must be 0, not NaN")
	}
	tier := metrics.CacheTier{Hits: 3, Misses: 1}
	if got := tier.HitRate(); got != 0.75 {
		t.Fatalf("hit rate = %v, want 0.75", got)
	}
}
