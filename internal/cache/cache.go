// Package cache is the coordinator's read-path cache: a byte-budgeted,
// sharded store for verified block bytes and decoded column chunks, a
// bounded ObjectMeta tier, and a singleflight layer that dedups concurrent
// identical fetches and RS reconstructions.
//
// Correctness rests on two invariants:
//
//   - Block and chunk entries are keyed by the object's write epoch
//     (DESIGN.md §9: epochs are never reused), so an overwrite can never be
//     served a pre-overwrite block — at worst a stale key misses.
//   - Entries are filled only with bytes that passed CRC verification, so a
//     hit may skip the read path's verification pass entirely.
//
// Invalidation (Put commit point, Delete, repair rewrite) is therefore a
// memory-reclamation and freshness concern, not the only line of defense
// against resurrecting old bytes.
//
// All methods are safe for concurrent use and are no-ops (misses) on a nil
// *Cache, mirroring the trace package's nil-receiver convention.
package cache

import (
	"container/list"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"github.com/fusionstore/fusion/internal/metrics"
)

// Kind discriminates what a data key caches.
type Kind uint8

const (
	// KindBlock caches one stored block's verified bytes; A/B are the
	// stripe and bin indices.
	KindBlock Kind = iota
	// KindChunk caches one decoded column chunk; A/B are the row-group and
	// column indices.
	KindChunk
)

// Key identifies one cached block or chunk. The epoch is part of the key:
// entries of a superseded version become unreachable the moment readers hold
// the new metadata, regardless of invalidation timing.
type Key struct {
	Object string
	Epoch  uint64
	Kind   Kind
	A, B   int
}

// Config sizes a Cache.
type Config struct {
	// Bytes is the data-tier budget shared by block and chunk entries;
	// <= 0 disables the data tiers (the meta tier still works).
	Bytes int64
	// MetaEntries bounds the ObjectMeta tier; <= 0 applies the default
	// (4096 objects).
	MetaEntries int
}

const (
	defaultMetaEntries = 4096
	numShards          = 8
)

// entry is one resident data item.
type entry struct {
	key  Key
	val  any
	size uint64
}

// shard is one lock stripe of the data tier: a map plus an LRU list whose
// front is the most recently used entry.
type shard struct {
	mu     sync.Mutex
	budget uint64
	used   uint64
	items  map[Key]*list.Element // -> *entry
	lru    *list.List
}

// metaEntry is one resident ObjectMeta (held as any to keep this package
// free of a store dependency).
type metaEntry struct {
	name string
	val  any
}

// Cache is the coordinator cache. See the package comment for the contract.
type Cache struct {
	shards [numShards]shard

	metaMu    sync.Mutex
	metaLimit int
	metaItems map[string]*list.Element // -> *metaEntry
	metaLRU   *list.List

	flight flightGroup

	// Counters, grouped per tier. All atomics; snapshot via Stats.
	metaHits, metaMisses, metaEvictions       atomic.Uint64
	blockHits, blockMisses                    atomic.Uint64
	chunkHits, chunkMisses                    atomic.Uint64
	fills, evictions, invalidations, rejected atomic.Uint64
	flightLeaders, flightDedups               atomic.Uint64
	decodes                                   atomic.Uint64
}

// New builds a cache. The data tiers are disabled when cfg.Bytes <= 0.
func New(cfg Config) *Cache {
	c := &Cache{
		metaLimit: cfg.MetaEntries,
		metaItems: make(map[string]*list.Element),
		metaLRU:   list.New(),
	}
	if c.metaLimit <= 0 {
		c.metaLimit = defaultMetaEntries
	}
	perShard := uint64(0)
	if cfg.Bytes > 0 {
		perShard = uint64(cfg.Bytes) / numShards
		if perShard == 0 {
			perShard = 1
		}
	}
	for i := range c.shards {
		c.shards[i] = shard{
			budget: perShard,
			items:  make(map[Key]*list.Element),
			lru:    list.New(),
		}
	}
	c.flight.calls = make(map[string]*flightCall)
	return c
}

func (c *Cache) shardOf(k Key) *shard {
	h := fnv.New32a()
	h.Write([]byte(k.Object))
	h.Write([]byte{byte(k.Epoch), byte(k.Epoch >> 8), byte(k.Epoch >> 16), byte(k.Epoch >> 24),
		byte(k.Kind), byte(k.A), byte(k.A >> 8), byte(k.B), byte(k.B >> 8)})
	return &c.shards[h.Sum32()%numShards]
}

func (c *Cache) hit(k Kind) {
	if k == KindBlock {
		c.blockHits.Add(1)
	} else {
		c.chunkHits.Add(1)
	}
}

func (c *Cache) miss(k Kind) {
	if k == KindBlock {
		c.blockMisses.Add(1)
	} else {
		c.chunkMisses.Add(1)
	}
}

// Get returns the cached value for k. The caller must treat the value as
// immutable — entries are shared across readers.
func (c *Cache) Get(k Key) (any, bool) {
	if c == nil {
		return nil, false
	}
	val, ok := c.lookup(k)
	if ok {
		c.hit(k.Kind)
	} else {
		c.miss(k.Kind)
	}
	return val, ok
}

// Recheck is Get for a caller that missed k a moment ago and has since become
// the leader of k's flight (Do): the first thing such a leader does is look
// again, because a reader that misses just before an earlier flight fills the
// cache and leaves the flight map would otherwise repeat that flight's work. A
// hit counts as one; the miss was counted the first time.
func (c *Cache) Recheck(k Key) (any, bool) {
	if c == nil {
		return nil, false
	}
	val, ok := c.lookup(k)
	if ok {
		c.hit(k.Kind)
	}
	return val, ok
}

// lookup finds k and marks it most recently used; it counts nothing.
func (c *Cache) lookup(k Key) (any, bool) {
	sh := c.shardOf(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.items[k]
	if !ok {
		return nil, false
	}
	sh.lru.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// Put inserts a value of the given resident size, evicting LRU entries as
// needed. Values larger than a shard's budget (or any value when the data
// tiers are disabled) are rejected — the cache never evicts its whole
// contents for one oversized item.
func (c *Cache) Put(k Key, val any, size uint64) {
	if c == nil || size == 0 {
		return
	}
	sh := c.shardOf(k)
	if size > sh.budget {
		c.rejected.Add(1)
		return
	}
	sh.mu.Lock()
	if el, ok := sh.items[k]; ok {
		// Replace in place (e.g. re-fill after invalidation lost the race).
		sh.used -= el.Value.(*entry).size
		sh.used += size
		el.Value.(*entry).val = val
		el.Value.(*entry).size = size
		sh.lru.MoveToFront(el)
	} else {
		sh.items[k] = sh.lru.PushFront(&entry{key: k, val: val, size: size})
		sh.used += size
		c.fills.Add(1)
	}
	for sh.used > sh.budget {
		back := sh.lru.Back()
		if back == nil {
			break
		}
		ev := back.Value.(*entry)
		sh.lru.Remove(back)
		delete(sh.items, ev.key)
		sh.used -= ev.size
		c.evictions.Add(1)
	}
	sh.mu.Unlock()
}

// Invalidate drops one entry.
func (c *Cache) Invalidate(k Key) {
	if c == nil {
		return
	}
	sh := c.shardOf(k)
	sh.mu.Lock()
	if el, ok := sh.items[k]; ok {
		ev := el.Value.(*entry)
		sh.lru.Remove(el)
		delete(sh.items, k)
		sh.used -= ev.size
		c.invalidations.Add(1)
	}
	sh.mu.Unlock()
}

// InvalidateObject drops every data entry of the object whose epoch differs
// from keepEpoch (keepEpoch 0 drops all epochs — the Delete tombstone case).
// Returns how many entries were dropped.
func (c *Cache) InvalidateObject(object string, keepEpoch uint64) int {
	if c == nil {
		return 0
	}
	dropped := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for k, el := range sh.items {
			if k.Object != object || (keepEpoch != 0 && k.Epoch == keepEpoch) {
				continue
			}
			sh.used -= el.Value.(*entry).size
			sh.lru.Remove(el)
			delete(sh.items, k)
			dropped++
		}
		sh.mu.Unlock()
	}
	if dropped > 0 {
		c.invalidations.Add(uint64(dropped))
	}
	return dropped
}

// GetMeta returns the cached object metadata for name.
func (c *Cache) GetMeta(name string) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.metaMu.Lock()
	el, ok := c.metaItems[name]
	var val any
	if ok {
		c.metaLRU.MoveToFront(el)
		val = el.Value.(*metaEntry).val
	}
	c.metaMu.Unlock()
	if !ok {
		c.metaMisses.Add(1)
		return nil, false
	}
	c.metaHits.Add(1)
	return val, true
}

// PeekMeta is GetMeta for a caller that wants a hint, not a read: it counts
// neither a hit nor a miss and leaves the entry's recency as it is.
func (c *Cache) PeekMeta(name string) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.metaMu.Lock()
	defer c.metaMu.Unlock()
	el, ok := c.metaItems[name]
	if !ok {
		return nil, false
	}
	return el.Value.(*metaEntry).val, true
}

// PutMeta caches object metadata, evicting the least recently used entry
// beyond the tier's bound.
func (c *Cache) PutMeta(name string, val any) {
	if c == nil {
		return
	}
	c.metaMu.Lock()
	if el, ok := c.metaItems[name]; ok {
		el.Value.(*metaEntry).val = val
		c.metaLRU.MoveToFront(el)
	} else {
		c.metaItems[name] = c.metaLRU.PushFront(&metaEntry{name: name, val: val})
		for len(c.metaItems) > c.metaLimit {
			back := c.metaLRU.Back()
			ev := back.Value.(*metaEntry)
			c.metaLRU.Remove(back)
			delete(c.metaItems, ev.name)
			c.metaEvictions.Add(1)
		}
	}
	c.metaMu.Unlock()
}

// DeleteMeta drops an object's cached metadata.
func (c *Cache) DeleteMeta(name string) {
	if c == nil {
		return
	}
	c.metaMu.Lock()
	if el, ok := c.metaItems[name]; ok {
		c.metaLRU.Remove(el)
		delete(c.metaItems, name)
		c.invalidations.Add(1)
	}
	c.metaMu.Unlock()
}

// MetaNames lists the objects with cached metadata.
func (c *Cache) MetaNames() []string {
	if c == nil {
		return nil
	}
	c.metaMu.Lock()
	defer c.metaMu.Unlock()
	names := make([]string, 0, len(c.metaItems))
	for n := range c.metaItems {
		names = append(names, n)
	}
	return names
}

// CountDecode records one executed RS decode (the read path calls it from
// inside the singleflight leader, so the counter equals actual decode work,
// not decode demand).
func (c *Cache) CountDecode() {
	if c == nil {
		return
	}
	c.decodes.Add(1)
}

// flightCall is one in-flight fetch shared by concurrent callers.
type flightCall struct {
	wg  sync.WaitGroup
	val any
	err error
}

// flightGroup is a minimal singleflight: concurrent Do calls with the same
// key share one execution of fn.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

// Do executes fn once per key among concurrent callers; every caller gets
// the leader's result. shared reports whether this caller joined an
// in-flight leader instead of executing fn itself. The returned value is
// shared — callers must treat it as immutable.
func (c *Cache) Do(key string, fn func() (any, error)) (val any, err error, shared bool) {
	if c == nil {
		val, err = fn()
		return val, err, false
	}
	g := &c.flight
	g.mu.Lock()
	if call, ok := g.calls[key]; ok {
		g.mu.Unlock()
		c.flightDedups.Add(1)
		call.wg.Wait()
		return call.val, call.err, true
	}
	call := &flightCall{}
	call.wg.Add(1)
	g.calls[key] = call
	g.mu.Unlock()

	c.flightLeaders.Add(1)
	call.val, call.err = fn()
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	call.wg.Done()
	return call.val, call.err, false
}

// Stats snapshots every tier's counters.
func (c *Cache) Stats() metrics.CacheStats {
	if c == nil {
		return metrics.CacheStats{}
	}
	var entries, bytes uint64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		entries += uint64(len(sh.items))
		bytes += sh.used
		sh.mu.Unlock()
	}
	c.metaMu.Lock()
	metaEntries := uint64(len(c.metaItems))
	c.metaMu.Unlock()
	return metrics.CacheStats{
		Meta: metrics.CacheTier{
			Hits:      c.metaHits.Load(),
			Misses:    c.metaMisses.Load(),
			Evictions: c.metaEvictions.Load(),
			Entries:   metaEntries,
		},
		Block: metrics.CacheTier{
			Hits:   c.blockHits.Load(),
			Misses: c.blockMisses.Load(),
		},
		Chunk: metrics.CacheTier{
			Hits:   c.chunkHits.Load(),
			Misses: c.chunkMisses.Load(),
		},
		DataEntries:   entries,
		DataBytes:     bytes,
		Fills:         c.fills.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Rejected:      c.rejected.Load(),
		FlightLeaders: c.flightLeaders.Load(),
		FlightDedups:  c.flightDedups.Load(),
		Decodes:       c.decodes.Load(),
	}
}
