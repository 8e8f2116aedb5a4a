package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/fusionstore/fusion/internal/metakv"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/trace"
)

// cacheTestOptions enables the read cache's data tiers on top of the usual
// test configuration.
func cacheTestOptions() Options {
	o := fusionTestOptions()
	o.CacheBytes = 64 << 20
	return o
}

// TestCacheHitZeroBytesFromNodes pins the read-amplification contract: a
// repeat Get served from the cache moves zero bytes from storage nodes and
// is visible as cache hits in both the trace and the store stats.
func TestCacheHitZeroBytesFromNodes(t *testing.T) {
	data, _, _ := makeObject(t, 3, 400, 1)
	s, _ := newSimStore(t, cacheTestOptions())
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}

	ctx, cold := trace.Start(context.Background(), "cold")
	got, err := s.GetContext(ctx, "obj", 0, 0)
	cold.End()
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("cold read: %v", err)
	}
	if cold.Total(trace.BytesFromNodes) == 0 {
		t.Fatal("cold read should move bytes from nodes")
	}

	ctx, hot := trace.Start(context.Background(), "hot")
	got, err = s.GetContext(ctx, "obj", 0, 0)
	hot.End()
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("hot read: %v", err)
	}
	if n := hot.Total(trace.BytesFromNodes); n != 0 {
		t.Fatalf("hot read moved %d bytes from nodes, want 0", n)
	}
	if hot.Total(trace.CacheHits) == 0 {
		t.Fatal("hot read recorded no cache hits")
	}
	if hot.Total(trace.BytesRequested) == 0 {
		t.Fatal("hot read must still count bytes requested")
	}
	cs := s.CacheStats()
	if cs.Block.Hits == 0 {
		t.Fatalf("block tier saw no hits: %+v", cs)
	}
}

// TestCacheHitQueryZeroBytesFromNodes is the query-path variant: a repeated
// reassembly-mode scan is served from the decoded-chunk tier.
func TestCacheHitQueryZeroBytesFromNodes(t *testing.T) {
	data, _, _ := makeObject(t, 3, 400, 1)
	opts := cacheTestOptions()
	opts.Layout = LayoutFixed // no pushdown: every chunk is fetched
	s, _ := newSimStore(t, opts)
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT SUM(qty), AVG(price) FROM obj WHERE qty > 10"

	ctx, cold := trace.Start(context.Background(), "cold")
	resCold, err := s.QueryContext(ctx, q)
	cold.End()
	if err != nil {
		t.Fatal(err)
	}

	ctx, hot := trace.Start(context.Background(), "hot")
	resHot, err := s.QueryContext(ctx, q)
	hot.End()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(resHot.AggValues) != fmt.Sprint(resCold.AggValues) {
		t.Fatalf("hot query changed the answer: %v vs %v", resHot.AggValues, resCold.AggValues)
	}
	if n := hot.Total(trace.BytesFromNodes); n != 0 {
		t.Fatalf("hot query moved %d bytes from nodes, want 0", n)
	}
	if l := remoteLedger(resHot.Stats); len(l) != 0 {
		t.Fatalf("hot query's ledger has remote entries: %v", l)
	}
	if hot.Total(trace.CacheHits) == 0 {
		t.Fatal("hot query recorded no cache hits")
	}
	if cs := s.CacheStats(); cs.Chunk.Hits == 0 {
		t.Fatalf("chunk tier saw no hits: %+v", cs)
	}

	// A block-tier hit is not a fetch: with the blocks warmed by a Get and the
	// chunk tier of a fresh store still cold, every chunk is sliced from
	// memory, so the query charges no fetch and no network byte.
	s, _ = newSimStore(t, opts)
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("obj", 0, 0); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.AggValues) != fmt.Sprint(resCold.AggValues) {
		t.Fatalf("block-tier query changed the answer: %v vs %v", res.AggValues, resCold.AggValues)
	}
	if cs := s.CacheStats(); cs.Block.Hits == 0 {
		t.Fatalf("query saw no block-tier hits: %+v", cs)
	}
	if res.Stats.FetchRPCs != 0 || res.Stats.TrafficBytes != 0 || len(remoteLedger(res.Stats)) != 0 {
		t.Fatalf("block-tier hits charged as fetches: %d fetch RPCs, %d traffic bytes",
			res.Stats.FetchRPCs, res.Stats.TrafficBytes)
	}
}

// TestCacheInvalidationOnOverwrite: the commit point of an overwrite must
// flip this coordinator's cache to the new version atomically — a warm
// reader can never be handed pre-overwrite bytes again.
func TestCacheInvalidationOnOverwrite(t *testing.T) {
	dataOld, _, _ := makeObject(t, 2, 300, 1)
	dataNew, _, _ := makeObject(t, 3, 250, 2)
	s, _ := newSimStore(t, cacheTestOptions())
	if _, err := s.Put("obj", dataOld); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get("obj", 0, 0); err != nil || !bytes.Equal(got, dataOld) {
		t.Fatalf("warming read: %v", err)
	}
	if _, err := s.Put("obj", dataNew); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("obj", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, dataNew) {
		t.Fatal("read after overwrite served pre-overwrite bytes")
	}
}

// TestCacheInvalidationOnDelete: a Delete tombstones the cache — the
// deleting coordinator must never serve the dead object from memory.
func TestCacheInvalidationOnDelete(t *testing.T) {
	data, _, _ := makeObject(t, 2, 300, 1)
	s, _ := newSimStore(t, cacheTestOptions())
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("obj", 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("obj"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("obj", 0, 0); err == nil {
		t.Fatal("read after delete served cached bytes of a deleted object")
	} else if !strings.Contains(err.Error(), "not found") {
		t.Fatalf("read after delete: %v, want not-found", err)
	}
	if st := s.CacheStats(); st.DataEntries != 0 {
		t.Fatalf("%d data entries survived the delete tombstone", st.DataEntries)
	}
}

// TestCacheInvalidationMatrix is the crash-point matrix with caching
// enabled: the writing coordinator's cache is warm with the old version,
// the coordinator crashes at every interesting point of two-phase Put
// (epoch alloc, prepare scatter, metadata publish, commit fan-out, GC), and
// after reattach both the warm coordinator and a second coordinator that
// warmed its own cache before the overwrite must observe exactly the old or
// exactly the new bytes — never a mix — with a successful Put implying new
// on the writer.
func TestCacheInvalidationMatrix(t *testing.T) {
	seed := faultSeed(t)
	dataOld, _, _ := makeObject(t, 2, 200, seed)
	dataNew, _, _ := makeObject(t, 3, 150, seed+1)

	// committed marks the post-commit windows, where the Put must report
	// success (the GC is one KindBatch frame of deletes per node).
	points := []struct {
		name      string
		kind      rpc.Kind
		after     int
		committed bool
	}{
		{"epoch-alloc-0", rpc.KindRaiseVersion, 0, false},
		{"epoch-alloc-3", rpc.KindRaiseVersion, 3, false},
		{"prepare-0", rpc.KindPrepareBlock, 0, false},
		{"prepare-5", rpc.KindPrepareBlock, 5, false},
		{"meta-publish-0", rpc.KindPutBlock, 0, false},
		{"meta-publish-3", rpc.KindPutBlock, 3, false},
		{"commit-0", rpc.KindCommitObject, 0, true},
		{"commit-2", rpc.KindCommitObject, 2, true},
		{"gc-delete-0", rpc.KindBatch, 0, true},
		{"gc-delete-3", rpc.KindBatch, 3, true},
	}

	for _, pt := range points {
		pt := pt
		t.Run(pt.name, func(t *testing.T) {
			s1, inj := newFaultStore(t, 9, seed, cacheTestOptions())
			if _, err := s1.Put("obj", dataOld); err != nil {
				t.Fatal(err)
			}
			// Warm the writer's cache and an independent reader's cache.
			if _, err := s1.Get("obj", 0, 0); err != nil {
				t.Fatal(err)
			}
			s2, err := New(inj, cacheTestOptions())
			if err != nil {
				t.Fatal(err)
			}
			if got, err := s2.Get("obj", 0, 0); err != nil || !bytes.Equal(got, dataOld) {
				t.Fatalf("reader warm-up: %v", err)
			}

			inj.CrashClientAfter(pt.kind, pt.after)
			_, putErr := s1.Put("obj", dataNew)
			if !inj.Crashed() {
				t.Fatalf("crash point never reached (putErr = %v)", putErr)
			}
			t.Logf("putErr = %v", putErr)
			if pt.committed && putErr != nil {
				t.Fatalf("Put failed past its commit point: %v", putErr)
			}
			inj.Reattach()

			check := func(who string, s *Store, requireNew bool) {
				got, err := s.Get("obj", 0, 0)
				if err != nil {
					t.Fatalf("%s read after crash: %v", who, err)
				}
				isOld, isNew := bytes.Equal(got, dataOld), bytes.Equal(got, dataNew)
				if !isOld && !isNew {
					t.Fatalf("%s read a hybrid (%d bytes; old %d, new %d)",
						who, len(got), len(dataOld), len(dataNew))
				}
				if requireNew && !isNew {
					t.Fatalf("%s resurrected pre-overwrite bytes after the commit point", who)
				}
			}
			// The writer saw its own Put succeed ⇒ its cache flipped at the
			// commit point; reading old again would be the resurrection bug.
			check("warm writer", s1, putErr == nil)
			// The independent warm reader may serve its cached old version
			// or the new one, but never a mix.
			check("warm reader", s2, false)
			// A fresh coordinator is the committed truth.
			s3, err := New(inj, cacheTestOptions())
			if err != nil {
				t.Fatal(err)
			}
			check("fresh reader", s3, putErr == nil)
		})
	}
}

// TestSingleflightSingleDecodeGate: N concurrent readers of an object with
// one node down must trigger exactly one RS decode per lost block — the
// singleflight guarantee the ISSUE's acceptance criteria name.
func TestSingleflightSingleDecodeGate(t *testing.T) {
	data, _, _ := makeObject(t, 3, 400, 1)
	s, cl := newSimStore(t, cacheTestOptions())
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	meta, err := s.Meta("obj")
	if err != nil {
		t.Fatal(err)
	}
	// Count the distinct data blocks living on the victim node: each is one
	// unavoidable decode. Parity-only stripes don't force decodes on Get.
	const victim = 2
	lost := 0
	for _, st := range meta.Stripes {
		for bin := 0; bin < s.opts.Params.K && bin < len(st.Nodes); bin++ {
			if st.Nodes[bin] == victim && bin < len(st.DataLens) && st.DataLens[bin] > 0 {
				lost++
			}
		}
	}
	if lost == 0 {
		t.Skip("placement put no data blocks on the victim node")
	}
	cl.SetDown(victim, true)
	defer cl.SetDown(victim, false)

	const readers = 16
	var wg sync.WaitGroup
	errs := make([]error, readers)
	outs := make([][]byte, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = s.Get("obj", 0, 0)
		}(i)
	}
	wg.Wait()
	for i := 0; i < readers; i++ {
		if errs[i] != nil {
			t.Fatalf("reader %d: %v", i, errs[i])
		}
		if !bytes.Equal(outs[i], data) {
			t.Fatalf("reader %d got wrong bytes", i)
		}
	}
	cs := s.CacheStats()
	if cs.Decodes != uint64(lost) {
		t.Fatalf("observed %d RS decodes for %d lost blocks across %d concurrent readers (flight: %d leaders, %d dedups)",
			cs.Decodes, lost, readers, cs.FlightLeaders, cs.FlightDedups)
	}
}

// TestStaleReadAfterOverwriteRecovers: a coordinator holding a stale cached
// metadata snapshot whose blocks were overwritten AND garbage-collected by
// another coordinator must re-resolve and retry, not fail or serve garbage.
func TestStaleReadAfterOverwriteRecovers(t *testing.T) {
	dataOld, _, _ := makeObject(t, 2, 300, 1)
	dataNew, _, _ := makeObject(t, 3, 250, 2)
	opts := fusionTestOptions() // cache data tiers off: the meta snapshot itself is the hazard
	s1, cl := newSimStore(t, opts)
	s2, err := New(cl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Put("obj", dataOld); err != nil {
		t.Fatal(err)
	}
	// s2 captures the old metadata.
	if got, err := s2.Get("obj", 0, 0); err != nil || !bytes.Equal(got, dataOld) {
		t.Fatalf("warming read: %v", err)
	}
	// s1 overwrites; its GC deletes every old-epoch block.
	if _, err := s1.Put("obj", dataNew); err != nil {
		t.Fatal(err)
	}
	// s2's cached metadata now points at deleted blocks. The read must
	// re-resolve and return the new version.
	got, err := s2.Get("obj", 0, 0)
	if err != nil {
		t.Fatalf("stale-snapshot read did not recover: %v", err)
	}
	if !bytes.Equal(got, dataNew) {
		t.Fatal("stale-snapshot read returned wrong bytes")
	}
	// The same holds for queries.
	res1, err := s1.Query("SELECT SUM(id) FROM obj")
	if err != nil {
		t.Fatal(err)
	}
	res2, err := s2.Query("SELECT SUM(id) FROM obj")
	if err != nil {
		t.Fatalf("stale-snapshot query did not recover: %v", err)
	}
	if fmt.Sprint(res2.AggValues) != fmt.Sprint(res1.AggValues) {
		t.Fatalf("stale-snapshot query answer %v, want %v", res2.AggValues, res1.AggValues)
	}
}

// TestStaleReadConcurrentOverwrite races Gets against overwrites (run it
// under -race): every successful read must equal one complete version —
// epoch-keyed blocks make a hybrid structurally impossible, and this pins
// it.
func TestStaleReadConcurrentOverwrite(t *testing.T) {
	versions := make([][]byte, 4)
	for i := range versions {
		versions[i], _, _ = makeObject(t, 2, 200, int64(i+1))
	}
	opts := cacheTestOptions()
	s1, cl := newSimStore(t, opts)
	s2, err := New(cl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Put("obj", versions[0]); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var writerErr error
	go func() {
		defer close(done)
		for round := 0; round < 8; round++ {
			if _, err := s1.Put("obj", versions[round%len(versions)]); err != nil {
				writerErr = err
				return
			}
		}
	}()

	reads, failures := 0, 0
	for {
		select {
		case <-done:
			if writerErr != nil {
				t.Fatal(writerErr)
			}
			if reads == 0 {
				t.Fatal("no read completed during the overwrite storm")
			}
			t.Logf("%d reads (%d transient failures) during 8 overwrites", reads, failures)
			return
		default:
		}
		got, err := s2.Get("obj", 0, 0)
		if err != nil {
			// A read can lose the race twice in a row (its refreshed
			// snapshot GC'd by the next overwrite); that is a transient
			// failure, not a correctness bug.
			failures++
			continue
		}
		reads++
		match := false
		for _, v := range versions {
			if bytes.Equal(got, v) {
				match = true
				break
			}
		}
		if !match {
			t.Fatalf("read %d returned bytes matching no complete version (%d bytes)", reads, len(got))
		}
	}
}

// TestDeleteUsesQuorumNotCache: Delete through a coordinator whose cached
// metadata is superseded must delete the *current* version's blocks (via a
// quorum read), not the stale cached one's — the latter stranded the new
// blocks as orphans.
func TestDeleteUsesQuorumNotCache(t *testing.T) {
	dataOld, _, _ := makeObject(t, 2, 300, 1)
	dataNew, _, _ := makeObject(t, 2, 250, 2)
	opts := fusionTestOptions()
	s1, cl := newSimStore(t, opts)
	s2, err := New(cl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Put("obj", dataOld); err != nil {
		t.Fatal(err)
	}
	// s2 caches the old metadata, then s1 overwrites.
	if _, err := s2.Meta("obj"); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Put("obj", dataNew); err != nil {
		t.Fatal(err)
	}
	// Delete through the coordinator with the stale cache.
	if err := s2.Delete("obj"); err != nil {
		t.Fatal(err)
	}
	// No object blocks may remain anywhere.
	for node := 0; node < cl.NumNodes(); node++ {
		resp := cl.Node(node).Handle(&rpc.Request{Kind: rpc.KindListBlocks})
		for _, b := range resp.Blocks {
			if strings.HasPrefix(b.ID, "kv/") {
				continue
			}
			if object, _, _, _, ok := parseBlockID(b.ID); ok && object == "obj" {
				t.Fatalf("node %d: block %q stranded by stale-cache delete", node, b.ID)
			}
		}
	}
	if err := s2.Delete("obj"); err == nil {
		t.Fatal("second delete must report not-found")
	} else if !errors.Is(err, metakv.ErrNotFound) {
		t.Fatalf("second delete: %v, want ErrNotFound", err)
	}
}
