package store

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"github.com/fusionstore/fusion/internal/simnet"
)

// twoCoordinators builds two Store handles over one shared cluster — two
// coordinators with independent metadata caches, the setup behind the
// concurrent-overwrite bugs.
func twoCoordinators(t *testing.T) (*Store, *Store, *simnet.Cluster) {
	t.Helper()
	cl := simnet.New(simnet.DefaultConfig())
	opts := fusionTestOptions()
	a, err := New(cl, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cl, opts)
	if err != nil {
		t.Fatal(err)
	}
	return a, b, cl
}

// TestOverwriteResolvesPrevByQuorum is the deterministic regression for the
// concurrent-overwrite race: coordinator B's metadata cache goes stale while
// coordinator A overwrites the object. B's subsequent Put must resolve the
// previous version from the metadata quorum at the commit point — a
// cache-served prev would publish a duplicate Version, re-delete the
// long-gone first epoch's blocks, and strand the real previous epoch.
func TestOverwriteResolvesPrevByQuorum(t *testing.T) {
	a, b, cl := twoCoordinators(t)
	v1, _, _ := makeObject(t, 2, 200, 301)
	v2, _, _ := makeObject(t, 2, 220, 302)
	v3, _, _ := makeObject(t, 2, 240, 303)

	if _, err := a.Put("obj", v1); err != nil {
		t.Fatal(err)
	}
	// Warm B's meta cache at version 0 …
	if m, err := b.Meta("obj"); err != nil || m.Version != 0 {
		t.Fatalf("b sees version %v, err %v", m, err)
	}
	// … then supersede it through A.
	if _, err := a.Put("obj", v2); err != nil {
		t.Fatal(err)
	}
	// B overwrites with a stale cache. The commit point must consult the
	// quorum: publish version 2 and GC v2's epoch, not v1's.
	if _, err := b.Put("obj", v3); err != nil {
		t.Fatal(err)
	}
	m, err := b.Meta("obj")
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != 2 {
		t.Fatalf("version after stale-cache overwrite = %d, want 2", m.Version)
	}
	got, err := b.Get("obj", 0, 0)
	if err != nil || !bytes.Equal(got, v3) {
		t.Fatalf("object must read back as v3: %v", err)
	}
	// Exactly one epoch's blocks may remain — the published one. A stranded
	// earlier epoch means B GC'd the wrong previous version.
	epochs := map[uint64]bool{}
	for i := 0; i < cl.NumNodes(); i++ {
		for _, id := range cl.Node(i).Blocks.IDs() {
			if object, epoch, _, _, ok := parseBlockID(id); ok && object == "obj" {
				epochs[epoch] = true
			}
		}
	}
	if len(epochs) != 1 || !epochs[m.Epoch] {
		t.Fatalf("epochs on disk: %v, want only published epoch %d", epochs, m.Epoch)
	}
}

// TestOverwriteStormTwoWriters drives two coordinators overwriting the same
// name concurrently (run under -race in CI). Blind metadata writes mean the
// winning version is scheduling-dependent, but the integrity properties are
// not: every read returns one writer's payload byte-for-byte (never a
// hybrid), and after orphan reconciliation only the published epoch's blocks
// survive.
func TestOverwriteStormTwoWriters(t *testing.T) {
	a, b, cl := twoCoordinators(t)
	const rounds = 4
	payloads := make([][]byte, 0, 2*rounds)
	for i := 0; i < 2*rounds; i++ {
		p, _, _ := makeObject(t, 2, 150, int64(400+i))
		payloads = append(payloads, p)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	writer := func(s *Store, ps [][]byte) {
		defer wg.Done()
		for _, p := range ps {
			if _, err := s.Put("obj", p); err != nil {
				errs <- err
				return
			}
		}
	}
	wg.Add(2)
	go writer(a, payloads[:rounds])
	go writer(b, payloads[rounds:])
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// A fresh coordinator (no cache) must read one complete payload.
	c, err := New(cl, fusionTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("obj", 0, 0)
	if err != nil {
		t.Fatalf("read after overwrite storm: %v", err)
	}
	whole := false
	for _, p := range payloads {
		if bytes.Equal(got, p) {
			whole = true
			break
		}
	}
	if !whole {
		t.Fatal("storm read returned a hybrid of two writers' payloads")
	}
	// Losing attempts' blocks are orphans (their metadata was superseded by
	// a concurrent publish); reconciliation must leave only the winner.
	if _, err := c.ReconcileOrphans(context.Background(), true); err != nil {
		t.Fatal(err)
	}
	m, err := c.Meta("obj")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cl.NumNodes(); i++ {
		for _, id := range cl.Node(i).Blocks.IDs() {
			if object, epoch, _, _, ok := parseBlockID(id); ok && object == "obj" && epoch != m.Epoch {
				t.Fatalf("epoch %d blocks survive reconciliation (published %d)", epoch, m.Epoch)
			}
		}
	}
	if got, err := c.Get("obj", 0, 0); err != nil || len(got) == 0 {
		t.Fatalf("object unreadable after reconciliation: %v", err)
	}
}

// TestOverwriteIsFreshInsert: re-putting an object writes a new version
// aside, publishes it via the metadata swap, and garbage-collects the old
// blocks — no in-place mutation (§5: updates are fresh inserts).
func TestOverwriteIsFreshInsert(t *testing.T) {
	v1, _, _ := makeObject(t, 2, 200, 101)
	v2, _, _ := makeObject(t, 3, 250, 102)
	s, cl := newSimStore(t, fusionTestOptions())
	if _, err := s.Put("obj", v1); err != nil {
		t.Fatal(err)
	}
	meta1, _ := s.Meta("obj")
	if meta1.Version != 0 {
		t.Fatalf("first version = %d", meta1.Version)
	}
	storedAfterV1 := cl.TotalStoredBytes()

	if _, err := s.Put("obj", v2); err != nil {
		t.Fatal(err)
	}
	meta2, _ := s.Meta("obj")
	if meta2.Version != 1 {
		t.Fatalf("second version = %d", meta2.Version)
	}
	got, err := s.Get("obj", 0, 0)
	if err != nil || !bytes.Equal(got, v2) {
		t.Fatalf("overwritten object must read back as v2: %v", err)
	}
	// Old blocks must be gone: total storage should reflect v2 only
	// (within the metadata replicas' size difference).
	storedAfterV2 := cl.TotalStoredBytes()
	if storedAfterV2 > storedAfterV1+uint64(len(v2))*2 {
		t.Fatalf("old version not collected: %d then %d bytes", storedAfterV1, storedAfterV2)
	}
	for i := 0; i < cl.NumNodes(); i++ {
		for _, id := range cl.Node(i).Blocks.IDs() {
			if len(id) > 7 && id[:7] == "obj/v0/" {
				t.Fatalf("stale v0 block %q survives on node %d", id, i)
			}
		}
	}
	// Queries against the new version work.
	res, err := s.Query("SELECT id FROM obj WHERE qty < 10")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows == 0 {
		t.Fatal("query on overwritten object returned nothing")
	}
}

// TestOverwriteSurvivesRepeat: many overwrites keep exactly one version.
func TestOverwriteSurvivesRepeat(t *testing.T) {
	s, cl := newSimStore(t, fusionTestOptions())
	var last []byte
	for i := 0; i < 5; i++ {
		data, _, _ := makeObject(t, 2, 150, int64(200+i))
		if _, err := s.Put("obj", data); err != nil {
			t.Fatal(err)
		}
		last = data
	}
	got, err := s.Get("obj", 0, 0)
	if err != nil || !bytes.Equal(got, last) {
		t.Fatalf("final version wrong: %v", err)
	}
	meta, _ := s.Meta("obj")
	if meta.Version != 4 {
		t.Fatalf("version = %d, want 4", meta.Version)
	}
	// Exactly one write epoch's blocks remain (five Puts burned epochs
	// 1..5; only the last survives GC).
	epochs := map[uint64]bool{}
	for i := 0; i < cl.NumNodes(); i++ {
		for _, id := range cl.Node(i).Blocks.IDs() {
			if object, epoch, _, _, ok := parseBlockID(id); ok && object == "obj" {
				epochs[epoch] = true
			}
		}
	}
	if len(epochs) != 1 || !epochs[5] {
		t.Fatalf("epochs on disk: %v", epochs)
	}
}
