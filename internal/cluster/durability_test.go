package cluster

import (
	"errors"
	"fmt"
	"testing"

	"github.com/fusionstore/fusion/internal/rpc"
)

// prepare and commit send one node the two-phase write protocol's requests.
func prepare(t testing.TB, n *Node, id, object string, epoch uint64) {
	t.Helper()
	data := []byte(id)
	if resp := n.Handle(&rpc.Request{
		Kind: rpc.KindPrepareBlock, BlockID: id, Data: data, Object: object, Epoch: epoch, Crc: Checksum(data),
	}); resp.Err != "" {
		t.Fatalf("prepare %s: %s", id, resp.Err)
	}
}

func commit(t testing.TB, n *Node, object string, epoch uint64) {
	t.Helper()
	if resp := n.Handle(&rpc.Request{Kind: rpc.KindCommitObject, Object: object, Epoch: epoch}); resp.Err != "" {
		t.Fatalf("commit %s/%d: %s", object, epoch, resp.Err)
	}
}

// inventory returns the node's blocks as id → pending, and requires the
// pending index to hold exactly the pending entries: every indexed id has a
// pending record of that attempt, every pending record is indexed, and no
// attempt keeps an empty set.
func inventory(t testing.TB, n *Node) map[string]bool {
	t.Helper()
	resp := n.Handle(&rpc.Request{Kind: rpc.KindListBlocks})
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	out := map[string]bool{}
	for _, b := range resp.Blocks {
		out[b.ID] = b.Pending
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	indexed := 0
	for key, ids := range n.pending {
		if len(ids) == 0 {
			t.Errorf("pending index keeps an empty set for %+v", key)
		}
		for id := range ids {
			indexed++
			if e, ok := n.entries[id]; !ok || !e.pending || e.object != key.object || e.epoch != key.epoch {
				t.Errorf("pending index holds %s under %+v, its record is %+v (present %v)", id, key, e, ok)
			}
		}
	}
	for id, e := range n.entries {
		if e.pending {
			indexed--
			if _, ok := n.pending[attempt{e.object, e.epoch}][id]; !ok {
				t.Errorf("pending record %s (%+v) is not indexed", id, e)
			}
		}
	}
	if indexed != 0 {
		t.Errorf("pending index and pending records differ by %d", indexed)
	}
	return out
}

// TestCommitTransitions walks the durability record of a block through every
// request that changes it and checks, after each, the block's state and that
// the per-attempt pending index stayed exact.
func TestCommitTransitions(t *testing.T) {
	const present, gone = "present", "gone"
	type step struct {
		name string
		do   func(t *testing.T, n *Node)
		// want is block "a"'s state afterwards: "pending", "committed",
		// present (stored, no record) or gone.
		want string
	}
	plainPut := func(t *testing.T, n *Node) {
		if resp := n.Handle(&rpc.Request{Kind: rpc.KindPutBlock, BlockID: "a", Data: []byte("x")}); resp.Err != "" {
			t.Fatal(resp.Err)
		}
	}
	recordedPut := func(t *testing.T, n *Node) {
		data := []byte("rewritten")
		if resp := n.Handle(&rpc.Request{
			Kind: rpc.KindPutBlock, BlockID: "a", Data: data, Object: "o", Epoch: 1, Crc: Checksum(data),
		}); resp.Err != "" {
			t.Fatal(resp.Err)
		}
	}
	del := func(t *testing.T, n *Node) {
		if resp := n.Handle(&rpc.Request{Kind: rpc.KindDeleteBlock, BlockID: "a"}); resp.Err != "" {
			t.Fatal(resp.Err)
		}
	}
	prep := func(epoch uint64) func(*testing.T, *Node) {
		return func(t *testing.T, n *Node) { prepare(t, n, "a", "o", epoch) }
	}
	com := func(epoch uint64) func(*testing.T, *Node) {
		return func(t *testing.T, n *Node) { commit(t, n, "o", epoch) }
	}
	cases := map[string][]step{
		"prepare, commit, commit again": {
			{"prepare", prep(1), "pending"}, {"commit", com(1), "committed"}, {"commit again", com(1), "committed"},
		},
		"prepare, delete, commit": {
			{"prepare", prep(1), "pending"}, {"delete", del, gone}, {"commit", com(1), gone},
		},
		"prepare, plain PutBlock, commit": {
			{"prepare", prep(1), "pending"}, {"PutBlock", plainPut, present}, {"commit", com(1), present},
		},
		"prepare, recorded PutBlock, commit": {
			{"prepare", prep(1), "pending"}, {"PutBlock", recordedPut, "committed"}, {"commit", com(1), "committed"},
		},
		"prepare again under another epoch": {
			{"prepare e1", prep(1), "pending"}, {"prepare e2", prep(2), "pending"},
			{"commit e1", com(1), "pending"}, {"commit e2", com(2), "committed"},
		},
		"prepare again under the same epoch": {
			{"prepare", prep(1), "pending"}, {"prepare", prep(1), "pending"}, {"commit", com(1), "committed"},
		},
		"commit of another attempt": {
			{"prepare", prep(1), "pending"}, {"commit e9", com(9), "pending"},
		},
	}
	for name, steps := range cases {
		t.Run(name, func(t *testing.T) {
			n := NewNode(0, NewMemStore())
			// A bystander of the same attempt and one of another object: a
			// commit flips the first with "a" and never the second.
			prepare(t, n, "sibling", "o", 1)
			prepare(t, n, "other", "p", 1)
			for _, st := range steps {
				st.do(t, n)
				inv := inventory(t, n)
				pending, stored := inv["a"]
				n.mu.Lock()
				_, recorded := n.entries["a"]
				n.mu.Unlock()
				got := gone
				switch {
				case stored && !recorded:
					got = present
				case stored && pending:
					got = "pending"
				case stored:
					got = "committed"
				}
				if got != st.want {
					t.Fatalf("after %s: block a is %s, want %s", st.name, got, st.want)
				}
				if !inv["other"] {
					t.Fatalf("after %s: another object's block was committed", st.name)
				}
			}
		})
	}
}

// failingDeleteStore fails Delete for one id.
type failingDeleteStore struct {
	BlockStore
	bad string
}

func (s failingDeleteStore) Delete(id string) error {
	if id == s.bad {
		return errors.New("injected delete failure")
	}
	return s.BlockStore.Delete(id)
}

// TestBatchedDeletes: a frame of DeleteBlock sub-requests removes the blocks
// and their durability records, a missing id is not an error, and a failing
// sub-request fails alone.
func TestBatchedDeletes(t *testing.T) {
	n := NewNode(0, failingDeleteStore{BlockStore: NewMemStore(), bad: "stuck"})
	for _, id := range []string{"a", "b", "stuck", "kept"} {
		prepare(t, n, id, "o", 1)
	}
	commit(t, n, "o", 1)
	prepare(t, n, "c", "o", 2) // still pending when deleted
	req := &rpc.Request{Kind: rpc.KindBatch}
	ids := []string{"a", "missing", "stuck", "b", "c"}
	for _, id := range ids {
		req.Subs = append(req.Subs, rpc.Request{Kind: rpc.KindDeleteBlock, BlockID: id})
	}
	resp := n.Handle(req)
	if resp.Err != "" || len(resp.Subs) != len(ids) {
		t.Fatalf("delete frame: err %q, %d sub-responses", resp.Err, len(resp.Subs))
	}
	for i, id := range ids {
		if failed := resp.Subs[i].Err != ""; failed != (id == "stuck") {
			t.Errorf("sub-request %s: err %q", id, resp.Subs[i].Err)
		}
	}
	inv := inventory(t, n)
	if _, ok := inv["stuck"]; len(inv) != 2 || !ok || inv["kept"] {
		t.Fatalf("inventory after the frame: %v, want stuck and kept, both committed", inv)
	}
	n.mu.Lock()
	records, attempts := len(n.entries), len(n.pending)
	n.mu.Unlock()
	if records != 2 || attempts != 0 {
		t.Fatalf("%d durability records and %d pending attempts survive, want 2 and 0", records, attempts)
	}
}

// BenchmarkCommitObject commits nine pending blocks on a node holding 100k
// committed ones: the cost is the attempt's, not the node's.
func BenchmarkCommitObject(b *testing.B) {
	n := NewNode(0, NewMemStore())
	const committed, pending = 100_000, 9
	n.mu.Lock()
	for i := 0; i < committed; i++ {
		n.record(fmt.Sprintf("old/e1/s%d/b0", i), blockEntry{object: "old", epoch: 1}, true)
	}
	n.mu.Unlock()
	ids := make([]string, pending)
	for i := range ids {
		ids[i] = fmt.Sprintf("obj/e2/s%d/b0", i)
	}
	req := &rpc.Request{Kind: rpc.KindCommitObject, Object: "obj", Epoch: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		n.mu.Lock()
		for _, id := range ids {
			n.record(id, blockEntry{object: "obj", epoch: 2, pending: true}, true)
		}
		n.mu.Unlock()
		b.StartTimer()
		if resp := n.Handle(req); resp.Err != "" {
			b.Fatal(resp.Err)
		}
	}
}

// TestPrepareFrame: a node CRC-checks and stores every block of a
// multi-block prepare frame on its own and answers each in its sub-response.
// A block whose payload fails its CRC is refused alone; a frame that names a
// block twice is malformed and stores nothing.
func TestPrepareFrame(t *testing.T) {
	n := NewNode(0, NewMemStore())
	block := func(id string) rpc.Request {
		data := []byte("payload of " + id)
		return rpc.Request{Kind: rpc.KindPrepareBlock, BlockID: id, Data: data, Object: "obj", Epoch: 4, Crc: Checksum(data)}
	}
	bad := block("obj/e4/s1/b0")
	bad.Crc ^= 1
	resp := n.Handle(&rpc.Request{Kind: rpc.KindPrepareBlock, Subs: []rpc.Request{block("obj/e4/s0/b0"), bad, block("obj/e4/s2/b0")}})
	if resp.Err != "" || len(resp.Subs) != 3 {
		t.Fatalf("frame answered %q with %d sub-responses, want 3", resp.Err, len(resp.Subs))
	}
	if resp.Subs[0].Err != "" || resp.Subs[2].Err != "" || !IsChecksumErr(resp.Subs[1].Err) {
		t.Fatalf("sub-responses %q, %q, %q: want ok, checksum mismatch, ok", resp.Subs[0].Err, resp.Subs[1].Err, resp.Subs[2].Err)
	}
	want := map[string]bool{"obj/e4/s0/b0": true, "obj/e4/s2/b0": true}
	if got := inventory(t, n); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("node holds %v, want the two good blocks pending: %v", got, want)
	}
	commit(t, n, "obj", 4)

	dup := n.Handle(&rpc.Request{Kind: rpc.KindPrepareBlock, Subs: []rpc.Request{block("obj/e5/s0/b0"), block("obj/e5/s0/b0")}})
	if dup.Err == "" {
		t.Fatal("a frame naming one block twice was accepted")
	}
	if got := inventory(t, n); len(got) != 2 {
		t.Fatalf("the malformed frame stored blocks: %v", got)
	}
}
