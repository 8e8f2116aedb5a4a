package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/fusionstore/fusion/internal/metakv"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/simnet"
)

// nonRegisterBlocks inventories every non-kv block ID across the cluster.
func nonRegisterBlocks(t *testing.T, cl *simnet.Cluster) []string {
	t.Helper()
	var out []string
	for node := 0; node < cl.NumNodes(); node++ {
		resp := cl.Node(node).Handle(&rpc.Request{Kind: rpc.KindListBlocks})
		if resp.Err != "" {
			t.Fatalf("node %d inventory: %s", node, resp.Err)
		}
		for _, b := range resp.Blocks {
			if !strings.HasPrefix(b.ID, "kv/") {
				out = append(out, fmt.Sprintf("n%d:%s", node, b.ID))
			}
		}
	}
	return out
}

// TestPutFailureRollsBackPlacedBlocks: a Put that cannot finish its scatter
// (fewer than n healthy nodes) must fail AND undo the blocks it already
// placed — no stranded debris, only the burned epoch register remains.
func TestPutFailureRollsBackPlacedBlocks(t *testing.T) {
	seed := faultSeed(t)
	s, inj := newFaultStore(t, 9, seed, fusionTestOptions())
	data, _, _ := makeObject(t, 2, 200, seed)
	// One node down: stripes need 9 distinct healthy nodes, so placement
	// runs out of candidates after writing up to 8 blocks of a stripe.
	inj.SetDown(0, true)
	if _, err := s.Put("obj", data); !errors.Is(err, ErrTooManyFailures) {
		t.Fatalf("want ErrTooManyFailures with 8 healthy nodes, got %v", err)
	}
	inj.ReviveAll()
	cl := inj.Inner().(*simnet.Cluster)
	if left := nonRegisterBlocks(t, cl); len(left) != 0 {
		t.Fatalf("failed Put stranded %d blocks: %v", len(left), left)
	}
	// The burned epoch must not be reused: a successful retry writes epoch 2+.
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	meta, err := s.Meta("obj")
	if err != nil {
		t.Fatal(err)
	}
	if meta.Epoch < 2 {
		t.Fatalf("retry must burn a fresh epoch, got %d", meta.Epoch)
	}
	if got, err := s.Get("obj", 0, 0); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after retry: %v", err)
	}
}

// TestDiscoverObjectsSeesOtherCoordinatorsWrites: discovery scans node
// inventories, so a fresh coordinator with an empty cache still finds every
// object in the cluster.
func TestDiscoverObjectsSeesOtherCoordinatorsWrites(t *testing.T) {
	s1, cl := newSimStore(t, fusionTestOptions())
	for i := 0; i < 3; i++ {
		data, _, _ := makeObject(t, 1, 100, int64(80+i))
		if _, err := s1.Put(fmt.Sprintf("obj-%d", i), data); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := New(cl, fusionTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.Objects()) != 0 {
		t.Fatal("fresh coordinator must start with an empty cache")
	}
	names, err := s2.DiscoverObjects(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"obj-0", "obj-1", "obj-2"}
	if len(names) != len(want) {
		t.Fatalf("DiscoverObjects = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("DiscoverObjects = %v, want %v (sorted)", names, want)
		}
	}
}

// TestScrubAllRepairsEveryObject: one lost block per object, one cluster-wide
// repair pass, everything clean after.
func TestScrubAllRepairsEveryObject(t *testing.T) {
	s, cl := newSimStore(t, fusionTestOptions())
	var datas [][]byte
	for i := 0; i < 2; i++ {
		data, _, _ := makeObject(t, 1, 150, int64(90+i))
		datas = append(datas, data)
		if _, err := s.Put(fmt.Sprintf("obj-%d", i), data); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		meta, _ := s.Meta(fmt.Sprintf("obj-%d", i))
		st := meta.Stripes[0]
		if err := cl.Node(st.Nodes[1]).Blocks.Delete(st.BlockIDs[1]); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.ScrubAll(context.Background(), ScrubOptions{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Objects != 2 || len(rep.Errors) != 0 {
		t.Fatalf("ScrubAll: %+v errors %v", rep, rep.Errors)
	}
	tot := rep.Totals()
	if tot.MissingBlocks != 2 || tot.Repaired != 2 {
		t.Fatalf("totals: %+v", tot)
	}
	rep, err = s.ScrubAll(context.Background(), ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tot := rep.Totals(); tot.MissingBlocks != 0 || tot.CorruptStripes != 0 || tot.ChecksumFailures != 0 {
		t.Fatalf("post-repair totals: %+v", tot)
	}
	for i, data := range datas {
		if got, err := s.Get(fmt.Sprintf("obj-%d", i), 0, 0); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("obj-%d post-repair read: %v", i, err)
		}
	}
}

// TestRepairNodeAllRestoresWipedNode simulates a node returning with an
// empty disk: every object's blocks and metadata replicas on it must come
// back in one catch-up sweep.
func TestRepairNodeAllRestoresWipedNode(t *testing.T) {
	s, cl := newSimStore(t, fusionTestOptions())
	for i := 0; i < 2; i++ {
		data, _, _ := makeObject(t, 1, 150, int64(95+i))
		if _, err := s.Put(fmt.Sprintf("obj-%d", i), data); err != nil {
			t.Fatal(err)
		}
	}
	// Wipe node 3 completely (blocks and register replicas).
	const victim = 3
	resp := cl.Node(victim).Handle(&rpc.Request{Kind: rpc.KindListBlocks})
	wiped := 0
	for _, b := range resp.Blocks {
		if err := cl.Node(victim).Blocks.Delete(b.ID); err != nil {
			t.Fatal(err)
		}
		wiped++
	}
	if wiped == 0 {
		t.Fatal("node 3 held nothing; placement changed?")
	}
	n, err := s.RepairNodeAll(context.Background(), victim)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("catch-up repaired nothing")
	}
	rep, err := s.ScrubAll(context.Background(), ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tot := rep.Totals(); tot.MissingBlocks != 0 {
		t.Fatalf("blocks still missing after catch-up: %+v", tot)
	}
}

// TestRepairNeverResurrectsSupersededEpoch: a repair that found a block of
// epoch 1 lost must not leave that block on a node once a second coordinator
// has overwritten or deleted the object, whichever window the other write
// lands in. Nothing runs ReconcileOrphans: the repair writer alone keeps the
// superseded epoch collected.
func TestRepairNeverResurrectsSupersededEpoch(t *testing.T) {
	opts := fusionTestOptions()
	v1, _, _ := makeObject(t, 1, 200, 41)
	v2, _, _ := makeObject(t, 1, 220, 42)
	const lost = 2 // stripe 0's block deleted before each repair
	lostID := blockID("obj", 1, 0, lost)
	repairs := []struct {
		name   string
		detect int // distinct stripe-0 blocks read by the time the loss is found
		run    func(s *Store, node int) (int, error)
	}{
		{"Scrub", opts.Params.N, func(s *Store, _ int) (int, error) {
			rep, err := s.Scrub(context.Background(), "obj", ScrubOptions{Repair: true})
			if err != nil {
				return 0, err
			}
			return rep.Repaired, nil
		}},
		{"RepairNode", 1, func(s *Store, node int) (int, error) {
			n, err := s.RepairNode(context.Background(), "obj", node)
			if slices.Contains(s.metaReplicaNodes("obj"), node) {
				n-- // the node's metadata replica, which the sweep counts
			}
			return n, err
		}},
	}
	windows := []struct {
		name    string
		atWrite bool // just before the repair's PutBlock, else right after detection
		del     bool // the second coordinator deletes the object instead of overwriting it
		split   bool // the Delete is held between its two mutations until the repair returns
	}{
		{"overwrite after detection", false, false, false},
		{"overwrite before the write", true, false, false},
		{"delete before the write", true, true, false},
		{"delete around the write", true, true, true},
	}
	for _, r := range repairs {
		for _, w := range windows {
			t.Run(r.name+"/"+w.name, func(t *testing.T) {
				sim := simnet.New(simnet.DefaultConfig())
				// The other coordinator's Delete removes metadata and blocks in
				// two mutation phases; with split, its first call of the second
				// phase waits for release.
				held, release := make(chan struct{}), make(chan struct{})
				var firstPhase atomic.Int32 // 1 register, 2 blocks
				var holdOnce sync.Once
				s2, err := New(&hookClient{Client: sim, before: func(_ int, req *rpc.Request) {
					if !w.split || (req.Kind != rpc.KindDeleteBlock && req.Kind != rpc.KindBatch) {
						return
					}
					phase := int32(2)
					if strings.HasPrefix(req.BlockID, "kv/") {
						phase = 1
					}
					if firstPhase.CompareAndSwap(0, phase) || firstPhase.Load() == phase {
						return
					}
					holdOnce.Do(func() { close(held) })
					<-release
				}}, opts)
				if err != nil {
					t.Fatal(err)
				}
				otherErr := make(chan error, 1)
				other := func() {
					switch {
					case !w.del:
						_, err := s2.Put("obj", v2)
						otherErr <- err
					case !w.split:
						otherErr <- s2.Delete("obj")
					default:
						go func() { otherErr <- s2.Delete("obj") }()
						select {
						case <-held:
						case err := <-otherErr:
							otherErr <- err
						}
					}
				}
				var armed, fired atomic.Bool
				var fire sync.Once
				trigger := func() { fire.Do(func() { fired.Store(true); other() }) }
				var mu sync.Mutex
				seen := map[string]bool{}
				s1, err := New(&hookClient{
					Client: sim,
					before: func(_ int, req *rpc.Request) {
						if armed.Load() && w.atWrite && req.Kind == rpc.KindPutBlock && req.BlockID == lostID {
							trigger()
						}
					},
					after: func(_ int, req *rpc.Request) {
						if !armed.Load() || w.atWrite || req.Kind != rpc.KindGetBlock || !strings.HasPrefix(req.BlockID, "obj/e1/s0/") {
							return
						}
						mu.Lock()
						seen[req.BlockID] = true
						detected := len(seen) == r.detect
						mu.Unlock()
						if detected {
							trigger()
						}
					},
				}, opts)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s1.Put("obj", v1); err != nil {
					t.Fatal(err)
				}
				meta, err := s1.Meta("obj")
				if err != nil || meta.Epoch != 1 || len(meta.Stripes) != 1 {
					t.Fatalf("want one stripe at epoch 1: %v", err)
				}
				node := meta.Stripes[0].Nodes[lost]
				if err := sim.Node(node).Blocks.Delete(lostID); err != nil {
					t.Fatal(err)
				}

				armed.Store(true)
				repaired, err := r.run(s1, node)
				close(release)
				if !fired.Load() {
					t.Fatal("the second coordinator's write never ran")
				}
				if oerr := <-otherErr; oerr != nil {
					t.Fatalf("second coordinator: %v", oerr)
				}
				if err != nil {
					t.Fatalf("%s: %v", r.name, err)
				}
				if repaired != 0 {
					t.Errorf("%s counted %d repaired blocks of a superseded epoch", r.name, repaired)
				}

				fresh, err := New(sim, opts)
				if err != nil {
					t.Fatal(err)
				}
				var published uint64 // 0: deleted
				if !w.del {
					m, err := fresh.metaQuorum(context.Background(), nil, "obj")
					if err != nil {
						t.Fatal(err)
					}
					published = m.Epoch
				}
				for n := 0; n < sim.NumNodes(); n++ {
					for _, b := range sim.Node(n).Handle(&rpc.Request{Kind: rpc.KindListBlocks}).Blocks {
						if object, epoch, _, _, ok := parseBlockID(b.ID); ok && object == "obj" && epoch != published {
							t.Errorf("node %d holds %s of superseded epoch (published %d)", n, b.ID, published)
						}
					}
				}
				got, err := fresh.Get("obj", 0, 0)
				switch {
				case w.del && !errors.Is(err, metakv.ErrNotFound):
					t.Errorf("Get after the Delete: %v, want ErrNotFound", err)
				case !w.del && (err != nil || !bytes.Equal(got, v2)):
					t.Errorf("the new version does not read back: %v", err)
				}
			})
		}
	}
}

// TestRepairBlockDropsStaleItem: the one writer of rebuilt blocks resolves
// the object by quorum and drops an item whose object was deleted or
// overwritten after its block was found lost — errStaleRepair, nothing
// written — while an item at the current epoch is rebuilt.
func TestRepairBlockDropsStaleItem(t *testing.T) {
	v1, _, _ := makeObject(t, 1, 200, 51)
	v2, _, _ := makeObject(t, 1, 220, 52)
	const lost = 2
	ctx := context.Background()

	t.Run("deleted", func(t *testing.T) {
		s, cl := newSimStore(t, fusionTestOptions())
		if _, err := s.Put("obj", v1); err != nil {
			t.Fatal(err)
		}
		meta, err := s.Meta("obj")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Delete("obj"); err != nil {
			t.Fatal(err)
		}
		err = s.repairBlock(ctx, nil, repairItem{Object: "obj", Epoch: meta.Epoch, Stripe: 0, Block: lost})
		if !errors.Is(err, errStaleRepair) {
			t.Fatalf("repair of a deleted object: %v, want errStaleRepair", err)
		}
		if left := nonRegisterBlocks(t, cl); len(left) != 0 {
			t.Fatalf("repair of a deleted object left blocks: %v", left)
		}
	})

	t.Run("superseded", func(t *testing.T) {
		s, cl := newSimStore(t, fusionTestOptions())
		if _, err := s.Put("obj", v1); err != nil {
			t.Fatal(err)
		}
		old, err := s.Meta("obj")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Put("obj", v2); err != nil {
			t.Fatal(err)
		}
		cur, err := s.Meta("obj")
		if err != nil {
			t.Fatal(err)
		}
		err = s.repairBlock(ctx, nil, repairItem{Object: "obj", Epoch: old.Epoch, Stripe: 0, Block: lost})
		if !errors.Is(err, errStaleRepair) {
			t.Fatalf("repair at superseded epoch %d: %v, want errStaleRepair", old.Epoch, err)
		}
		oldID := blockID("obj", old.Epoch, 0, lost)
		for _, b := range nonRegisterBlocks(t, cl) {
			if strings.HasSuffix(b, ":"+oldID) {
				t.Fatalf("repair at a superseded epoch wrote %s", b)
			}
		}

		// The same call at the current epoch rebuilds a lost block.
		st := cur.Stripes[0]
		if err := cl.Node(st.Nodes[lost]).Blocks.Delete(st.BlockIDs[lost]); err != nil {
			t.Fatal(err)
		}
		if err := s.repairBlock(ctx, nil, repairItem{Object: "obj", Epoch: cur.Epoch, Stripe: 0, Block: lost}); err != nil {
			t.Fatalf("repair at the current epoch: %v", err)
		}
		if _, err := cl.Node(st.Nodes[lost]).Blocks.Get(st.BlockIDs[lost], 0, 0); err != nil {
			t.Fatalf("rebuilt block not on its home node: %v", err)
		}
		if got, err := s.Get("obj", 0, 0); err != nil || !bytes.Equal(got, v2) {
			t.Fatalf("read after repair: %v", err)
		}
	})
}
