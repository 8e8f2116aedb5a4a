package store

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/fusionstore/fusion/internal/bufpool"
	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/faultnet"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/simnet"
)

// scatterTestOptions forces a real fan-out whatever the box: eight workers,
// so a stripe's prepares, the commit calls and the delete frames overlap.
func scatterTestOptions() Options {
	o := fusionTestOptions()
	o.QueryWorkers = 8
	return o
}

// TestPutPlacementMatchesSeed: with no refusing node, block j of a stripe
// goes to entry j of that stripe's candidate permutation, one draw per stripe
// in stripe order from the store's seeded generator — whichever entry point
// the object came through and however the prepares were scheduled.
func TestPutPlacementMatchesSeed(t *testing.T) {
	data, _, _ := makeObject(t, 4, 350, 61)
	const nodes, seed = 12, 7
	puts := map[string]func(s *Store) error{
		"put": func(s *Store) error {
			_, err := s.Put("obj", data)
			return err
		},
		"reader-at": func(s *Store) error {
			_, err := s.PutReader(context.Background(), "obj", bytes.NewReader(data), uint64(len(data)))
			return err
		},
		"sequential": func(s *Store) error {
			_, err := s.PutReader(context.Background(), "obj", &sequentialReader{r: bytes.NewReader(data)}, uint64(len(data)))
			return err
		},
	}
	for name, put := range puts {
		t.Run(name, func(t *testing.T) {
			opts := scatterTestOptions()
			opts.Seed = seed
			s, _ := newFaultStore(t, nodes, 1, opts)
			if err := put(s); err != nil {
				t.Fatal(err)
			}
			meta, err := s.Meta("obj")
			if err != nil {
				t.Fatal(err)
			}
			if len(meta.Stripes) < 2 {
				t.Fatalf("want a multi-stripe object, got %d stripes", len(meta.Stripes))
			}
			rng := rand.New(rand.NewSource(seed))
			for si, st := range meta.Stripes {
				want := rng.Perm(nodes)[:opts.Params.N]
				if !slices.Equal(st.Nodes, want) {
					t.Fatalf("stripe %d placed on %v, its permutation starts %v", si, st.Nodes, want)
				}
			}
		})
	}
}

// TestPutScatterRefusalFallback: a node that refuses every PrepareBlock is
// replaced by a spare candidate when the cluster has one, and fails the Put —
// with every accepted sibling rolled back — when it has none.
func TestPutScatterRefusalFallback(t *testing.T) {
	data, _, _ := makeObject(t, 4, 350, 62)
	const refusing = 3
	refuse := faultnet.Rule{Node: refusing, Kind: rpc.KindPrepareBlock, Fault: faultnet.FaultError}

	t.Run("spare", func(t *testing.T) {
		s, inj := newFaultStore(t, 12, 1, scatterTestOptions())
		inj.Add(refuse)
		if _, err := s.Put("obj", data); err != nil {
			t.Fatal(err)
		}
		if inj.Injected(refusing) == 0 {
			t.Fatal("the refusing node was never a first choice: the test exercised nothing")
		}
		meta, err := s.Meta("obj")
		if err != nil {
			t.Fatal(err)
		}
		for si, st := range meta.Stripes {
			seen := map[int]bool{}
			for _, n := range st.Nodes {
				if n == refusing || seen[n] {
					t.Fatalf("stripe %d placed on %v: wants %d distinct nodes, none of them %d",
						si, st.Nodes, len(st.Nodes), refusing)
				}
				seen[n] = true
			}
		}
		if got, err := s.Get("obj", 0, 0); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read back: %v", err)
		}
	})

	t.Run("no-spare", func(t *testing.T) {
		s, inj := newFaultStore(t, 9, 1, scatterTestOptions())
		inj.Add(refuse)
		if _, err := s.Put("obj", data); !errors.Is(err, ErrTooManyFailures) {
			t.Fatalf("want ErrTooManyFailures with no spare candidate, got %v", err)
		}
		// The eight siblings the other nodes accepted were all in the tracker.
		if left := nonRegisterBlocks(t, inj.Inner().(*simnet.Cluster)); len(left) != 0 {
			t.Fatalf("failed Put stranded %d blocks: %v", len(left), left)
		}
	})
}

// kindCounter counts the calls that reach the transport by kind, and the
// bare DeleteBlock calls that name an object block rather than a register.
type kindCounter struct {
	cluster.Client
	mu           sync.Mutex
	kinds        map[rpc.Kind]int
	blockDeletes int
}

func (c *kindCounter) Call(node int, req *rpc.Request) (*rpc.Response, error) {
	c.mu.Lock()
	c.kinds[req.Kind]++
	if req.Kind == rpc.KindDeleteBlock && !strings.HasPrefix(req.BlockID, "kv/") {
		c.blockDeletes++
	}
	c.mu.Unlock()
	return c.Client.Call(node, req)
}

func (c *kindCounter) reset() {
	c.mu.Lock()
	c.kinds, c.blockDeletes = map[rpc.Kind]int{}, 0
	c.mu.Unlock()
}

// TestPutRoundTrips pins the write side's call count: an overwrite is one
// PrepareBlock per block, one CommitObject per node and one delete frame per
// node for the previous epoch; Delete is one delete frame per node and the
// register delete. No block is ever deleted by a call of its own.
func TestPutRoundTrips(t *testing.T) {
	data, _, _ := makeObject(t, 4, 350, 63)
	cl := &kindCounter{Client: simnet.New(simnet.DefaultConfig()), kinds: map[rpc.Kind]int{}}
	const nodes = 9
	s, err := New(cl, scatterTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := s.Put("obj", data)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Stripes < 2 {
		t.Fatalf("want a multi-stripe object, got %d stripes", stats.Stripes)
	}

	cl.reset()
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	if got, want := cl.kinds[rpc.KindPrepareBlock], nodes*stats.Stripes; got != want {
		t.Errorf("overwrite: %d PrepareBlock calls, want %d (9 per stripe)", got, want)
	}
	if got := cl.kinds[rpc.KindCommitObject]; got != nodes {
		t.Errorf("overwrite: %d CommitObject calls, want %d", got, nodes)
	}
	if got := cl.kinds[rpc.KindBatch]; got == 0 || got > nodes {
		t.Errorf("overwrite: %d delete frames, want 1..%d", got, nodes)
	}
	if cl.blockDeletes != 0 {
		t.Errorf("overwrite: %d bare DeleteBlock calls for object blocks, want 0", cl.blockDeletes)
	}

	cl.reset()
	if err := s.Delete("obj"); err != nil {
		t.Fatal(err)
	}
	if got := cl.kinds[rpc.KindBatch]; got == 0 || got > nodes {
		t.Errorf("Delete: %d delete frames, want 1..%d", got, nodes)
	}
	if cl.blockDeletes != 0 {
		t.Errorf("Delete: %d bare DeleteBlock calls for object blocks, want 0", cl.blockDeletes)
	}
	// Nothing but the register delete's own calls beside the frames.
	if got, want := cl.kinds[rpc.KindDeleteBlock], s.opts.Params.K+1; got != want {
		t.Errorf("Delete: %d register deletes, want %d", got, want)
	}
	if left := nonRegisterBlocks(t, cl.Client.(*simnet.Cluster)); len(left) != 0 {
		t.Fatalf("Delete left %d blocks: %v", len(left), left)
	}
}

// TestStreamingPutPooledCancelMidStripe extends the poison-on-put discipline
// to a Put abandoned while a stripe's prepares are in flight: two slow nodes
// hold their calls past the cancel, so the abandoned attempts deliver after
// the Put has returned. The Put must report the context's error, every block
// any node then holds must still match its recorded CRC — a stripe whose
// scatter failed keeps its arenas out of the pool, so a late attempt reads the
// bytes it was given — and the name must stay writable.
func TestStreamingPutPooledCancelMidStripe(t *testing.T) {
	prev := bufpool.SetPoison(true)
	defer bufpool.SetPoison(prev)

	data, _, _ := makeObject(t, 4, 350, 64)
	s, inj := newFaultStore(t, 9, 1, scatterTestOptions())
	const slow = 60 * time.Millisecond
	for _, node := range []int{2, 5} {
		inj.Add(faultnet.Rule{Node: node, Kind: rpc.KindPrepareBlock, Fault: faultnet.FaultSlow, Delay: slow, Count: 1})
	}
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(slow/4, cancel)
	defer timer.Stop()
	if _, err := s.PutContext(ctx, "obj", data); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled from a Put cancelled mid-stripe, got %v", err)
	}
	// Wait for the two abandoned calls to land: each leaves its block on its
	// node after the rollback has run.
	cl := inj.Inner().(*simnet.Cluster)
	for _, node := range []int{2, 5} {
		landed := func() bool {
			return slices.ContainsFunc(cl.Node(node).Blocks.IDs(), func(id string) bool { return !strings.HasPrefix(id, "kv/") })
		}
		for deadline := time.Now().Add(10 * time.Second); !landed(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("the abandoned PrepareBlock to node %d never landed", node)
			}
		}
	}
	for node := 0; node < cl.NumNodes(); node++ {
		resp := cl.Node(node).Handle(&rpc.Request{Kind: rpc.KindListBlocks})
		if resp.Err != "" {
			t.Fatalf("node %d inventory: %s", node, resp.Err)
		}
		for _, b := range resp.Blocks {
			if !b.HasCrc {
				continue // register blocks carry their own checksum
			}
			got, err := cl.Node(node).Blocks.Get(b.ID, 0, 0)
			if err != nil {
				t.Fatalf("node %d block %s: %v", node, b.ID, err)
			}
			if cluster.Checksum(got) != b.Crc {
				t.Errorf("node %d holds %s with bytes that fail its recorded CRC (poisoned: %v)",
					node, b.ID, bufpool.Poisoned(got))
			}
		}
	}

	if _, err := s.Put("obj", data); err != nil {
		t.Fatalf("Put after the cancelled attempt: %v", err)
	}
	if got, err := s.Get("obj", 0, 0); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back after the cancelled attempt: %v", err)
	}
}
