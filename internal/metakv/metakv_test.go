package metakv

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/simnet"
)

func newKV(t *testing.T, replicas ...int) (*KV, *simnet.Cluster) {
	t.Helper()
	cl := simnet.New(simnet.Config{Nodes: 7, ProcessRate: 1e9, NetCPURate: 1e9})
	kv, err := New(cl, replicas)
	if err != nil {
		t.Fatal(err)
	}
	return kv, cl
}

func TestNewValidation(t *testing.T) {
	cl := simnet.New(simnet.Config{Nodes: 3, ProcessRate: 1e9, NetCPURate: 1e9})
	if _, err := New(cl, nil); err == nil {
		t.Fatal("empty replica set must be rejected")
	}
	if _, err := New(cl, []int{0, 5}); err == nil {
		t.Fatal("out-of-range replica must be rejected")
	}
	if _, err := New(cl, []int{1, 1}); err == nil {
		t.Fatal("duplicate replica must be rejected")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	kv, _ := newKV(t, 0, 1, 2, 3, 4)
	if kv.Majority() != 3 {
		t.Fatalf("majority of 5 = %d", kv.Majority())
	}
	ver, err := kv.Put("obj", []byte("v1"))
	if err != nil || ver != 1 {
		t.Fatalf("Put: %d, %v", ver, err)
	}
	val, gotVer, err := kv.Get("obj")
	if err != nil || !bytes.Equal(val, []byte("v1")) || gotVer != 1 {
		t.Fatalf("Get: %q v%d, %v", val, gotVer, err)
	}
	// Overwrite bumps the version.
	ver, err = kv.Put("obj", []byte("v2"))
	if err != nil || ver != 2 {
		t.Fatalf("second Put: %d, %v", ver, err)
	}
	val, _, _ = kv.Get("obj")
	if !bytes.Equal(val, []byte("v2")) {
		t.Fatalf("Get after overwrite: %q", val)
	}
}

func TestGetMissing(t *testing.T) {
	kv, _ := newKV(t, 0, 1, 2)
	if _, _, err := kv.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestSurvivesMinorityFailure(t *testing.T) {
	kv, cl := newKV(t, 0, 1, 2, 3, 4)
	if _, err := kv.Put("obj", []byte("before")); err != nil {
		t.Fatal(err)
	}
	// Two of five replicas down: still a quorum.
	cl.SetDown(1, true)
	cl.SetDown(3, true)
	if _, err := kv.Put("obj", []byte("after")); err != nil {
		t.Fatalf("Put with minority down: %v", err)
	}
	val, _, err := kv.Get("obj")
	if err != nil || string(val) != "after" {
		t.Fatalf("Get with minority down: %q, %v", val, err)
	}
	// Three down: no quorum.
	cl.SetDown(4, true)
	if _, err := kv.Put("obj", []byte("x")); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("want ErrNoQuorum, got %v", err)
	}
	if _, _, err := kv.Get("obj"); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("want ErrNoQuorum on read, got %v", err)
	}
}

// TestStaleReplicaNeverWins is the linearizability core: a replica that
// missed an update must never cause an older value to be returned, because
// write and read majorities overlap.
func TestStaleReplicaNeverWins(t *testing.T) {
	kv, cl := newKV(t, 0, 1, 2, 3, 4)
	if _, err := kv.Put("obj", []byte("old")); err != nil {
		t.Fatal(err)
	}
	// Nodes 0 and 1 miss the update.
	cl.SetDown(0, true)
	cl.SetDown(1, true)
	if _, err := kv.Put("obj", []byte("new")); err != nil {
		t.Fatal(err)
	}
	// They come back; the nodes that took the write go away (still a
	// majority alive: 0, 1, and one of {2,3,4}).
	cl.SetDown(0, false)
	cl.SetDown(1, false)
	cl.SetDown(3, true)
	cl.SetDown(4, true)
	val, ver, err := kv.Get("obj")
	if err != nil {
		t.Fatal(err)
	}
	if string(val) != "new" || ver != 2 {
		t.Fatalf("stale value won: %q v%d", val, ver)
	}
}

func TestReadRepair(t *testing.T) {
	kv, cl := newKV(t, 0, 1, 2)
	if _, err := kv.Put("obj", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Wipe replica 2's copy; a Get must restore it.
	if err := cl.Node(2).Blocks.Delete("kv/obj"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := kv.Get("obj"); err != nil {
		t.Fatal(err)
	}
	resp := cl.Node(2).Handle(&rpc.Request{Kind: rpc.KindGetBlock, BlockID: "kv/obj"})
	if resp.Err != "" {
		t.Fatal("read repair must restore the wiped replica")
	}
}

func TestDelete(t *testing.T) {
	kv, _ := newKV(t, 0, 1, 2)
	if _, err := kv.Put("obj", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := kv.Delete("obj"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := kv.Get("obj"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound after delete, got %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	kv, _ := newKV(t, 0, 1, 2, 3, 4)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i%4)
			for j := 0; j < 10; j++ {
				if _, err := kv.Put(key, []byte(fmt.Sprintf("%d-%d", i, j))); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := kv.Get(key); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	// Versions must be monotone and substantial.
	for i := 0; i < 4; i++ {
		_, ver, err := kv.Get(fmt.Sprintf("k%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if ver < 10 {
			t.Fatalf("k%d version %d too low for 20 writes", i, ver)
		}
	}
}

// TestIncrMonotonicCounter pins the epoch-allocator contract for one
// allocating coordinator: Incr bumps the register version without touching
// its value, every allocation lands on a majority, and Head observes the
// latest allocation without inventing values for unwritten keys. Two
// coordinators allocating at once are TestConcurrentIncrsAreUnique's and
// TestCrossedIncrsAreUnique's.
func TestIncrMonotonicCounter(t *testing.T) {
	kv, _ := newKV(t, 0, 1, 2, 3, 4)
	if head, err := kv.Head("ctr"); err != nil || head != 0 {
		t.Fatalf("Head of unwritten key = %d, %v (want 0, nil)", head, err)
	}
	for want := uint64(1); want <= 3; want++ {
		got, err := kv.Incr("ctr")
		if err != nil || got != want {
			t.Fatalf("Incr #%d = %d, %v", want, got, err)
		}
	}
	if head, err := kv.Head("ctr"); err != nil || head != 3 {
		t.Fatalf("Head after 3 Incrs = %d, %v", head, err)
	}
	// Incr preserves the stored value.
	if _, err := kv.Put("obj", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	ver, err := kv.Incr("obj")
	if err != nil || ver != 2 {
		t.Fatalf("Incr over value = %d, %v", ver, err)
	}
	val, gotVer, err := kv.Get("obj")
	if err != nil || string(val) != "payload" || gotVer != 2 {
		t.Fatalf("value after Incr = %q v%d, %v", val, gotVer, err)
	}
}

// TestIncrSurvivesMinorityFailure: allocations stay monotone across replica
// failures because each lands on an overlapping majority.
func TestIncrSurvivesMinorityFailure(t *testing.T) {
	kv, cl := newKV(t, 0, 1, 2, 3, 4)
	if v, err := kv.Incr("ctr"); err != nil || v != 1 {
		t.Fatalf("Incr: %d, %v", v, err)
	}
	cl.SetDown(0, true)
	cl.SetDown(1, true)
	if v, err := kv.Incr("ctr"); err != nil || v != 2 {
		t.Fatalf("Incr with minority down: %d, %v", v, err)
	}
	// The replicas that missed allocation 2 return; two that saw it go away.
	cl.SetDown(0, false)
	cl.SetDown(1, false)
	cl.SetDown(3, true)
	cl.SetDown(4, true)
	if v, err := kv.Incr("ctr"); err != nil || v != 3 {
		t.Fatalf("Incr after failover must not reuse a version: %d, %v", v, err)
	}
}

// TestCorruptReplicaAtRest: a register block that rots at rest fails the
// payload checksum, decodes as "no value", and can never win a quorum read
// with a garbage version; the read repairs it in passing.
func TestCorruptReplicaAtRest(t *testing.T) {
	kv, cl := newKV(t, 0, 1, 2)
	if _, err := kv.Put("obj", []byte("good")); err != nil {
		t.Fatal(err)
	}
	// Rot replica 1's copy: flip a byte inside the version field, which
	// without the checksum would make it win the read with a huge version.
	blk, err := cl.Node(1).Blocks.Get(BlockID("obj"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	blk = bytes.Clone(blk) // a block read from a store is read-only
	blk[7] ^= 0xFF
	if err := cl.Node(1).Blocks.Put(BlockID("obj"), blk); err != nil {
		t.Fatal(err)
	}
	val, ver, err := kv.Get("obj")
	if err != nil || string(val) != "good" || ver != 1 {
		t.Fatalf("Get over rotted replica = %q v%d, %v", val, ver, err)
	}
	// The read must have repaired the rotted replica in place.
	fixed, err := cl.Node(1).Blocks.Get(BlockID("obj"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if gotVer, gotVal, err := cluster.DecodeVersioned(fixed); err != nil || gotVer != 1 || string(gotVal) != "good" {
		t.Fatalf("replica not repaired: v%d %q, %v", gotVer, gotVal, err)
	}
}

// barrierClient holds every call until a full round of width calls has
// arrived. A phase that issues its calls one after another, or through a pool
// narrower than the replica set, never fills a round: its calls time out.
type barrierClient struct {
	cluster.Client
	width int

	mu      sync.Mutex
	arrived int
	rounds  []chan struct{} // rounds[r] is closed by arrival (r+1)*width
}

func (c *barrierClient) Call(node int, req *rpc.Request) (*rpc.Response, error) {
	c.mu.Lock()
	r := c.arrived / c.width
	c.arrived++
	if r == len(c.rounds) {
		c.rounds = append(c.rounds, make(chan struct{}))
	}
	full := c.rounds[r]
	if c.arrived%c.width == 0 {
		close(full)
	}
	c.mu.Unlock()
	select {
	case <-full:
		return c.Client.Call(node, req)
	case <-time.After(time.Second):
		return nil, errors.New("barrier: the round never filled")
	}
}

// TestPhaseCallsOverlap: every quorum phase — read, write, delete — has all
// k+1 of its calls in flight together, whatever the CPU count. A phase costs
// the slowest of its round trips, not their sum.
func TestPhaseCallsOverlap(t *testing.T) {
	replicas := []int{0, 1, 2, 3, 4, 5, 6}
	cl := &barrierClient{Client: simnet.New(simnet.Config{Nodes: 7, ProcessRate: 1e9, NetCPURate: 1e9}), width: len(replicas)}
	kv, err := New(cl, replicas)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kv.Put("obj", []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := kv.Incr("obj"); err != nil {
		t.Fatalf("Incr: %v", err)
	}
	if val, ver, err := kv.Get("obj"); err != nil || string(val) != "v" || ver != 2 {
		t.Fatalf("Get: %q v%d, %v", val, ver, err)
	}
	if err := kv.Delete("obj"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if rounds := cl.arrived / cl.width; rounds != 6 || cl.arrived%cl.width != 0 {
		t.Fatalf("%d calls in rounds of %d, want 6 full rounds", cl.arrived, cl.width)
	}
}

// TestConcurrentIncrsAreUnique: two coordinators' registers over one cluster
// allocate from one counter at once — half their callers with no hint, half
// with hints that fall behind — and no version is handed out twice. Each
// caller's own versions rise, and the counter ends at the highest.
func TestConcurrentIncrsAreUnique(t *testing.T) {
	cl := simnet.New(simnet.Config{Nodes: 5, ProcessRate: 1e9, NetCPURate: 1e9})
	replicas := []int{0, 1, 2, 3, 4}
	kvs := make([]*KV, 2)
	for i := range kvs {
		kv, err := New(cl, replicas)
		if err != nil {
			t.Fatal(err)
		}
		kvs[i] = kv
	}
	const callers, each = 8, 25
	got := make([][]uint64, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			kv := kvs[c%2]
			var hint uint64
			for j := 0; j < each; j++ {
				var v uint64
				var err error
				if c%4 < 2 {
					v, err = kv.Incr("ctr")
				} else {
					v, err = kv.IncrFrom("ctr", hint)
					hint = v / 2 // stale by the time it is used
				}
				if err != nil {
					t.Error(err)
					return
				}
				got[c] = append(got[c], v)
			}
		}(c)
	}
	wg.Wait()
	owner := map[uint64]int{}
	var top uint64
	for c, vs := range got {
		for j, v := range vs {
			if prev, dup := owner[v]; dup {
				t.Fatalf("version %d handed to callers %d and %d", v, prev, c)
			}
			owner[v] = c
			if j > 0 && v <= vs[j-1] {
				t.Fatalf("caller %d got %d after %d", c, v, vs[j-1])
			}
			top = max(top, v)
		}
	}
	if len(owner) != callers*each {
		t.Fatalf("%d versions for %d allocations", len(owner), callers*each)
	}
	if head, err := kvs[0].Head("ctr"); err != nil || head != top {
		t.Fatalf("Head = %d, %v; the highest allocation was %d", head, err, top)
	}
}

// crossClient holds the replies of its first gate.width calls until all of
// them have been served: each waits at the gate, a barrierClient, once its
// call has returned. Two allocators sharing it each start with a round over
// every replica, and neither sees a reply of that round before every call of
// both rounds has reached its replica. Later calls pass straight through.
type crossClient struct {
	cluster.Client
	gate  *barrierClient
	calls atomic.Int64
}

func (c *crossClient) Call(node int, req *rpc.Request) (*rpc.Response, error) {
	resp, err := c.Client.Call(node, req)
	if c.calls.Add(1) <= int64(c.gate.width) {
		if _, gerr := c.gate.Call(node, &rpc.Request{Kind: rpc.KindPing}); gerr != nil {
			return nil, gerr
		}
	}
	return resp, err
}

// TestCrossedIncrsAreUnique is the interleaving that let two coordinators own
// one epoch when Incr read the maximum version and then wrote max+1 blind:
// both allocators' first rounds are served before either sees a reply, so an
// Incr that reads first reads the same maximum in both, and both write the
// next version. With
// the first round a conditional write, each replica takes one allocator's
// proposal and refuses the other's, and the loser moves on to a version of
// its own.
func TestCrossedIncrsAreUnique(t *testing.T) {
	replicas := []int{0, 1, 2, 3, 4, 5, 6}
	sim := simnet.New(simnet.Config{Nodes: 7, ProcessRate: 1e9, NetCPURate: 1e9})
	cl := &crossClient{Client: sim, gate: &barrierClient{Client: sim, width: 2 * len(replicas)}}
	var got [2]uint64
	var errs [2]error
	var wg sync.WaitGroup
	for i := range got {
		kv, err := New(cl, replicas)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = kv.Incr("epoch/obj")
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got[0] == got[1] {
		t.Fatalf("both allocators own version %d", got[0])
	}
}
