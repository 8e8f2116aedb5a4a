package cluster

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/fusionstore/fusion/internal/rpc"
)

// TestRaiseVersionComparesOnNode pins the register's conditional write on
// both block stores: a replica takes a proposal only above the version it
// holds and keeps its value, a refusal is a reply carrying the version held
// (told apart from a raise even when that equals the proposal), and a
// replica with no block, or with one that fails its checksum, holds version
// 0.
func TestRaiseVersionComparesOnNode(t *testing.T) {
	for name, bs := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			n := NewNode(0, bs)
			raise := func(v uint64) (held uint64, took bool) {
				t.Helper()
				resp := n.Handle(&rpc.Request{Kind: rpc.KindRaiseVersion, BlockID: "kv/x", Epoch: v})
				if resp.Err != "" {
					t.Fatalf("raise to %d: %s", v, resp.Err)
				}
				return resp.Size, resp.Size < v
			}
			stored := func() (uint64, string) {
				t.Helper()
				data, err := bs.Get("kv/x", 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				v, val, err := DecodeVersioned(data)
				if err != nil {
					t.Fatal(err)
				}
				return v, string(val)
			}
			if held, took := raise(5); !took || held != 0 {
				t.Fatalf("raise of a missing replica: held %d, took %v", held, took)
			}
			for _, v := range []uint64{5, 3} {
				if held, took := raise(v); took || held != 5 {
					t.Fatalf("raise to %d over 5: held %d, took %v", v, held, took)
				}
			}
			if v, val := stored(); v != 5 || val != "" {
				t.Fatalf("after refusals: v%d %q", v, val)
			}
			// Read repair writes a replica back, unconditionally; a raise
			// above it keeps the value.
			if resp := n.Handle(&rpc.Request{Kind: rpc.KindPutBlock, BlockID: "kv/x", Data: EncodeVersioned(2, []byte("val"))}); resp.Err != "" {
				t.Fatal(resp.Err)
			}
			if held, took := raise(4); !took || held != 2 {
				t.Fatalf("raise to 4 over 2: held %d, took %v", held, took)
			}
			if v, val := stored(); v != 4 || val != "val" {
				t.Fatalf("after a raise: v%d %q, want v4 \"val\"", v, val)
			}
			// A rotted version field must not refuse with a garbage version.
			rot := EncodeVersioned(9, []byte("val"))
			rot[6] ^= 0xFF
			if err := bs.Put("kv/x", rot); err != nil {
				t.Fatal(err)
			}
			if held, took := raise(1); !took || held != 0 {
				t.Fatalf("raise over a rotted replica: held %d, took %v", held, took)
			}
			if v, val := stored(); v != 1 || val != "" {
				t.Fatalf("after raising a rotted replica: v%d %q", v, val)
			}
		})
	}
}

// TestRaiseVersionTakesOneProposer: of many proposals of one version racing
// to one replica, exactly one is taken.
func TestRaiseVersionTakesOneProposer(t *testing.T) {
	n := NewNode(0, NewMemStore())
	for v := uint64(1); v <= 20; v++ {
		var took atomic.Int32
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp := n.Handle(&rpc.Request{Kind: rpc.KindRaiseVersion, BlockID: "kv/x", Epoch: v})
				if resp.Err == "" && resp.Size < v {
					took.Add(1)
				}
			}()
		}
		wg.Wait()
		if got := took.Load(); got != 1 {
			t.Fatalf("version %d taken by %d proposers", v, got)
		}
	}
}
