package store

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/simnet"
)

// TestCrashPointMatrix kills the coordinator at every interesting point of
// an overwrite — during epoch allocation, after j of the scattered block
// prepares, partway through the metadata quorum publish, during the commit
// fan-out and during previous-version GC — and asserts the crash-consistency
// contract:
//
//  1. A fresh coordinator reads exactly the old bytes or exactly the new
//     bytes, never a hybrid.
//  2. A Put that returned success is durable: readers see the new version.
//  3. Orphan reconciliation (force, quiesced cluster) leaves the cluster
//     holding exactly the committed version's blocks plus the metadata
//     registers — no pending flags, no debris — and the object still reads
//     back and scrubs clean.
func TestCrashPointMatrix(t *testing.T) {
	runCrashPointMatrix(t, func(s *Store, name string, data []byte) error {
		_, err := s.Put(name, data)
		return err
	})
}

// TestCrashPointMatrixStreaming replays the whole matrix through PutReader:
// a crash mid-scatter now interrupts a live producer/consumer pipeline with
// pooled stripe arenas in flight, and the contract — old-or-new-never-
// hybrid, clean rollback mid-stripe, reconcile leaves no debris — must hold
// identically.
func TestCrashPointMatrixStreaming(t *testing.T) {
	runCrashPointMatrix(t, func(s *Store, name string, data []byte) error {
		_, err := s.PutReader(context.Background(), name, bytes.NewReader(data), uint64(len(data)))
		return err
	})
}

func runCrashPointMatrix(t *testing.T, put func(s *Store, name string, data []byte) error) {
	seed := faultSeed(t)
	dataOld, _, _ := makeObject(t, 2, 200, seed)
	dataNew, _, _ := makeObject(t, 3, 150, seed+1)
	if bytes.Equal(dataOld, dataNew) {
		t.Fatal("old and new versions must differ")
	}

	// Crash points: kind + how many matching calls complete first. An
	// overwrite's epoch allocation is one round of KindRaiseVersion to the
	// k+1 = 7 register replicas, so 0 and 3 crash inside it; its only
	// KindPutBlocks are the metadata publish's, so 0 and 3 crash partway
	// through the publish itself. The previous epoch is collected as one
	// KindBatch frame of deletes per node, and an overwriting Put sends no
	// other batch.
	// committed marks the post-commit windows — metadata published but not
	// every node committed, commit fan-out done but the previous epoch not
	// yet collected — where the Put must report success.
	points := []struct {
		name      string
		kind      rpc.Kind
		after     int
		committed bool
	}{
		{"epoch-alloc-0", rpc.KindRaiseVersion, 0, false},
		{"epoch-alloc-3", rpc.KindRaiseVersion, 3, false},
		{"prepare-0", rpc.KindPrepareBlock, 0, false},
		{"prepare-1", rpc.KindPrepareBlock, 1, false},
		{"prepare-5", rpc.KindPrepareBlock, 5, false},
		{"prepare-8", rpc.KindPrepareBlock, 8, false},
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
			s1, inj := newFaultStore(t, 9, seed, fusionTestOptions())
			if err := put(s1, "obj", dataOld); err != nil {
				t.Fatal(err)
			}

			inj.CrashClientAfter(pt.kind, pt.after)
			putErr := put(s1, "obj", dataNew)
			if !inj.Crashed() {
				t.Fatalf("crash point never reached (putErr = %v)", putErr)
			}
			t.Logf("putErr = %v", putErr)
			if pt.committed && putErr != nil {
				t.Fatalf("seed %d: Put failed past its commit point: %v", seed, putErr)
			}
			inj.Reattach()

			// A fresh coordinator over the same cluster: empty cache, quorum
			// reads only.
			s2, err := New(inj, fusionTestOptions())
			if err != nil {
				t.Fatal(err)
			}
			got, err := s2.Get("obj", 0, 0)
			if err != nil {
				t.Fatalf("seed %d: fresh read after crash: %v", seed, err)
			}
			isOld, isNew := bytes.Equal(got, dataOld), bytes.Equal(got, dataNew)
			if !isOld && !isNew {
				t.Fatalf("seed %d: fresh read is a hybrid (%d bytes; old %d, new %d)",
					seed, len(got), len(dataOld), len(dataNew))
			}
			if putErr == nil && !isNew {
				// The commit point passed (Put reported success): the write
				// must be durable for every subsequent reader.
				t.Fatalf("seed %d: successful Put not visible after crash", seed)
			}

			// Quiesced cluster: force-reconcile GCs every orphan.
			rep, err := s2.ReconcileOrphans(context.Background(), true)
			if err != nil {
				t.Fatalf("seed %d: reconcile: %v", seed, err)
			}
			meta, err := s2.Meta("obj")
			if err != nil {
				t.Fatal(err)
			}
			// Inventory audit: only register blocks and committed-epoch,
			// non-pending object blocks may remain.
			cl := inj.Inner().(*simnet.Cluster)
			for node := 0; node < cl.NumNodes(); node++ {
				resp := cl.Node(node).Handle(&rpc.Request{Kind: rpc.KindListBlocks})
				if resp.Err != "" {
					t.Fatalf("node %d inventory: %s", node, resp.Err)
				}
				for _, b := range resp.Blocks {
					if strings.HasPrefix(b.ID, "kv/") {
						continue
					}
					object, epoch, _, _, ok := parseBlockID(b.ID)
					if !ok || object != "obj" {
						t.Fatalf("node %d: unexpected block %q after reconcile", node, b.ID)
					}
					if epoch != meta.Epoch {
						t.Fatalf("seed %d: node %d: debris %q survived reconcile (committed epoch %d, report %+v)",
							seed, node, b.ID, meta.Epoch, rep)
					}
					if b.Pending {
						t.Fatalf("seed %d: node %d: block %q still pending after reconcile", seed, node, b.ID)
					}
				}
			}

			// The object still reads the same bytes and scrubs clean.
			got2, err := s2.Get("obj", 0, 0)
			if err != nil || !bytes.Equal(got2, got) {
				t.Fatalf("seed %d: post-reconcile read changed: %v", seed, err)
			}
			srep, err := s2.Scrub(context.Background(), "obj", ScrubOptions{})
			if err != nil || srep.MissingBlocks != 0 || srep.CorruptStripes != 0 || srep.ChecksumFailures != 0 {
				t.Fatalf("seed %d: post-reconcile scrub: %+v, %v", seed, srep, err)
			}
		})
	}
}

// TestCrashMidPutInvisibleUntilCommit pins the non-force reconciler's
// conservatism: the pending blocks of a crashed-before-commit attempt sit at
// the newest allocated epoch, so a non-force pass (which cannot tell them
// from an in-flight Put) leaves them alone, and only a force pass collects
// them.
func TestCrashMidPutInvisibleUntilCommit(t *testing.T) {
	seed := faultSeed(t)
	s1, inj := newFaultStore(t, 9, seed, fusionTestOptions())
	data, _, _ := makeObject(t, 2, 150, seed)
	if _, err := s1.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	dataNew, _, _ := makeObject(t, 2, 180, seed+1)
	inj.CrashClientAfter(rpc.KindPrepareBlock, 5)
	if _, err := s1.Put("obj", dataNew); err == nil {
		t.Fatal("crashed Put must not report success")
	}
	inj.Reattach()

	s2, err := New(inj, fusionTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s2.ReconcileOrphans(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped == 0 {
		t.Fatalf("non-force reconcile must skip the crashed attempt's pending blocks: %+v", rep)
	}
	if rep.Deleted != 0 {
		t.Fatalf("non-force reconcile must not GC possibly-in-flight blocks: %+v", rep)
	}
	rep, err = s2.ReconcileOrphans(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deleted == 0 {
		t.Fatalf("force reconcile must collect the debris: %+v", rep)
	}
	got, err := s2.Get("obj", 0, 0)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("old version must survive: %v", err)
	}
}
