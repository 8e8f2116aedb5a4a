package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/fusionstore/fusion/internal/bufpool"
	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/faultnet"
	"github.com/fusionstore/fusion/internal/lpq"
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

// seededPlacement replays the placement rule on meta's layout, stripe by
// stripe with no rounds: one permutation of the nodes per stripe, in stripe
// order, from a generator seeded with seed; the k data bins paired greedily
// with nodes, the pair whose node holds the most chunks sharing a row group
// with the bin first — a tie to the earlier bin, then to the node earlier in
// the permutation, a tie to the node holding fewer chunk bytes — and the
// parity blocks on the rest of the permutation in its order. Earlier stripes'
// chunks count on the nodes meta names.
func seededPlacement(meta *ObjectMeta, nodes int, seed int64, k int) [][]int {
	rng := rand.New(rand.NewSource(seed))
	binRGs := map[[2]int][]int{} // {stripe, bin} → row groups of its chunks
	for i, it := range meta.Items {
		if it.Kind == ItemChunk && meta.ItemLocs != nil {
			at := [2]int{meta.ItemLocs[i].Stripe, meta.ItemLocs[i].Bin}
			binRGs[at] = append(binRGs[at], it.RG)
		}
	}
	score := func(si, j, node int) int {
		n := 0
		for i, it := range meta.Items {
			if it.Kind != ItemChunk || meta.ItemLocs == nil {
				continue
			}
			loc := meta.ItemLocs[i]
			if loc.Stripe < si && meta.Stripes[loc.Stripe].Nodes[loc.Bin] == node &&
				slices.Contains(binRGs[[2]int{si, j}], it.RG) {
				n++
			}
		}
		return n
	}
	load := func(si, node int) uint64 { // chunk bytes stripes before si put on node
		var n uint64
		for i, it := range meta.Items {
			if it.Kind == ItemChunk && meta.ItemLocs != nil {
				if loc := meta.ItemLocs[i]; loc.Stripe < si && meta.Stripes[loc.Stripe].Nodes[loc.Bin] == node {
					n += it.Size
				}
			}
		}
		return n
	}
	out := make([][]int, len(meta.Stripes))
	for si, st := range meta.Stripes {
		perm := rng.Perm(nodes)
		out[si] = make([]int, k, len(st.Nodes))
		binDone, nodeTaken := map[int]bool{}, map[int]bool{}
		for range k {
			bin, node, best := -1, -1, -1
			for j := range k {
				for _, cand := range perm {
					if binDone[j] || nodeTaken[cand] {
						continue
					}
					if sc := score(si, j, cand); sc > best || sc == best && load(si, cand) < load(si, node) {
						bin, node, best = j, cand, sc
					}
				}
			}
			out[si][bin], binDone[bin], nodeTaken[node] = node, true, true
		}
		for _, cand := range perm {
			if len(out[si]) < len(st.Nodes) && !nodeTaken[cand] {
				out[si] = append(out[si], cand)
			}
		}
	}
	return out
}

// TestPutPlacementMatchesSeed: with no refusing node, every stripe lands
// where seededPlacement puts it — one permutation per stripe from the store's
// seeded generator, data bins beside their row groups, parity blocks in
// permutation order — whichever entry point the object came through and
// however the prepares were scheduled; the affinity moved some data bins off
// their permutation entries. A fixed-layout object's bins hold no chunk, and
// its stripes land on their permutations as drawn.
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
	placed := map[string][][]int{}
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
			if meta.Mode != LayoutFAC || len(meta.Stripes) < 2 {
				t.Fatalf("want a multi-stripe FAC object, got %v with %d stripes", meta.Mode, len(meta.Stripes))
			}
			want := seededPlacement(meta, nodes, seed, opts.Params.K)
			rng := rand.New(rand.NewSource(seed))
			moved := false
			for si, st := range meta.Stripes {
				if !slices.Equal(st.Nodes, want[si]) {
					t.Fatalf("stripe %d placed on %v, the rule places it on %v", si, st.Nodes, want[si])
				}
				moved = moved || !slices.Equal(st.Nodes, rng.Perm(nodes)[:opts.Params.N])
				placed[name] = append(placed[name], st.Nodes)
			}
			if !moved {
				t.Fatal("every stripe landed on its permutation as drawn: the test exercised no affinity")
			}
		})
	}
	if !maps.EqualFunc(placed, map[string][][]int{"put": placed["put"], "reader-at": placed["put"], "sequential": placed["put"]},
		func(a, b [][]int) bool { return slices.EqualFunc(a, b, slices.Equal[[]int]) }) {
		t.Fatalf("entry points placed the object differently: %v", placed)
	}

	t.Run("fixed", func(t *testing.T) {
		opts := scatterTestOptions()
		opts.Seed, opts.Layout, opts.FixedBlockSize = seed, LayoutFixed, 512
		s, _ := newFaultStore(t, nodes, 1, opts)
		if _, err := s.Put("obj", data); err != nil {
			t.Fatal(err)
		}
		meta, err := s.Meta("obj")
		if err != nil {
			t.Fatal(err)
		}
		if meta.Mode != LayoutFixed || len(meta.Stripes) < 2 {
			t.Fatalf("want a multi-stripe fixed-layout object, got %v with %d stripes", meta.Mode, len(meta.Stripes))
		}
		rng := rand.New(rand.NewSource(seed))
		for si, st := range meta.Stripes {
			if want := rng.Perm(nodes)[:opts.Params.N]; !slices.Equal(st.Nodes, want) {
				t.Fatalf("stripe %d placed on %v, its permutation starts %v", si, st.Nodes, want)
			}
		}
	})
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
// PrepareBlock frame per node per round (putRounds), one CommitObject per
// node and one delete frame per node for the previous epoch; Delete is one
// delete frame per node and the register delete. No block is ever deleted by
// a call of its own.
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
	meta, err := s.Meta("obj")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cl.kinds[rpc.KindPrepareBlock], nodes*len(putRounds(meta, nodes)); got != want {
		t.Errorf("overwrite: %d PrepareBlock frames, want %d (one per node per round)", got, want)
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

// putRounds groups an object's stripes the way the streaming Put scatters
// them: consecutive stripes while their arenas (n blocks of each stripe's
// capacity class) fit in the largest stripe's. It returns each round's
// stripe count.
func putRounds(meta *ObjectMeta, n int) []int {
	footprint := func(st StripeMeta) int { return n * bufpool.Cap(int(st.Capacity)) }
	budget := 0
	for _, st := range meta.Stripes {
		budget = max(budget, footprint(st))
	}
	var rounds []int
	used := 0
	for _, st := range meta.Stripes {
		if len(rounds) == 0 || used+footprint(st) > budget {
			rounds, used = append(rounds, 0), 0
		}
		rounds[len(rounds)-1]++
		used += footprint(st)
	}
	return rounds
}

// skewedObject is an lpq object whose FAC layout has a few large stripes and
// many small ones: six string columns, 23 row groups of 40 rows and one of
// 400, its strings drawn from seed.
func skewedObject(t *testing.T, seed int64) []byte {
	t.Helper()
	var schema []lpq.Column
	for c := 0; c < 6; c++ {
		schema = append(schema, lpq.Column{Name: fmt.Sprintf("c%d", c), Type: lpq.String})
	}
	w := lpq.NewWriter(schema, lpq.DefaultWriterOptions())
	rng := rand.New(rand.NewSource(seed))
	for g := 0; g < 24; g++ {
		rows := 40
		if g == 6 {
			rows = 400
		}
		cols := make([]lpq.ColumnData, len(schema))
		for c := range cols {
			vals := make([]string, rows)
			for i := range vals {
				vals[i] = fmt.Sprintf("g%d note %d %d", g, rng.Intn(100000), rng.Int63())
			}
			cols[c] = lpq.StringColumn(vals)
		}
		if err := w.WriteRowGroup(cols); err != nil {
			t.Fatal(err)
		}
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// prepareLog records, in order, each PrepareBlock call that reached it: the
// node it went to, the blocks it named and the payload bytes it carried.
type prepareLog struct {
	cluster.Client
	mu    sync.Mutex
	calls []prepareCall
}

type prepareCall struct {
	node  int
	ids   []string
	bytes int
}

func (c *prepareLog) Call(node int, req *rpc.Request) (*rpc.Response, error) {
	if req.Kind == rpc.KindPrepareBlock {
		call := prepareCall{node: node}
		for _, b := range append([]rpc.Request{*req}, req.Subs...) {
			if b.BlockID != "" {
				call.ids = append(call.ids, b.BlockID)
				call.bytes += len(b.Data)
			}
		}
		c.mu.Lock()
		c.calls = append(c.calls, call)
		c.mu.Unlock()
	}
	return c.Client.Call(node, req)
}

// TestPutRoundsKeepTwoStripeBound: a Put of an object with one large stripe
// among many small ones groups the small stripes into rounds that share one
// prepare frame per node, yet keeps the pipeline's two-stripe memory bound:
// the peak stays within two largest stripes, every node gets exactly one
// frame per round, no frame carries more than the largest stripe's block
// class, and every stripe still lands where the placement rule puts it.
func TestPutRoundsKeepTwoStripeBound(t *testing.T) {
	data := skewedObject(t, 65)
	const nodes = 9
	log := &prepareLog{Client: simnet.New(simnet.DefaultConfig())}
	opts := scatterTestOptions()
	opts.Seed = 7
	s, err := New(log, opts)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := s.Put("obj", data)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := s.Meta("obj")
	if err != nil {
		t.Fatal(err)
	}
	rounds := putRounds(meta, nodes)
	if stats.Mode != LayoutFAC || len(rounds) < 3 || len(rounds) >= stats.Stripes || slices.Max(rounds) < 2 {
		t.Fatalf("want a FAC object whose stripes form several rounds, some shared: %v layout, %d stripes in rounds %v",
			stats.Mode, stats.Stripes, rounds)
	}
	if stats.PeakPipelineBytes > 2*stats.MaxStripeBytes {
		t.Errorf("peak pipeline bytes %d exceed two largest stripes (%d each)", stats.PeakPipelineBytes, stats.MaxStripeBytes)
	}
	var largest uint64
	for _, st := range meta.Stripes {
		largest = max(largest, st.Capacity)
	}
	frames := map[int]int{}
	for _, call := range log.calls {
		frames[call.node]++
		if class := bufpool.Cap(int(largest)); call.bytes > class {
			t.Errorf("a prepare frame carried %d bytes, more than the largest stripe's block class %d", call.bytes, class)
		}
	}
	for node := 0; node < nodes; node++ {
		if frames[node] != len(rounds) {
			t.Errorf("node %d got %d prepare frames, want one per round: %d", node, frames[node], len(rounds))
		}
	}
	// Rounds change how blocks travel, not where they go: the rule placed
	// each stripe as it would one stripe at a time.
	want := seededPlacement(meta, nodes, opts.Seed, opts.Params.K)
	for si, st := range meta.Stripes {
		if !slices.Equal(st.Nodes, want[si]) {
			t.Fatalf("stripe %d placed on %v, the rule places it on %v", si, st.Nodes, want[si])
		}
	}
	if got, err := s.Get("obj", 0, 0); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back: %v", err)
	}
}

// TestPutFrameRefusalRetriesEveryBlock: a fault rule keyed on PrepareBlock
// refuses a whole multi-block frame, which refuses every block in it. Each of
// those blocks is then offered bare to its own stripe's spares, and the Put
// succeeds with none of them on the refusing node.
func TestPutFrameRefusalRetriesEveryBlock(t *testing.T) {
	data := skewedObject(t, 65)
	const refusing = 3
	_, inj := newFaultStore(t, 12, 1, scatterTestOptions())
	log := &prepareLog{Client: inj}
	opts := scatterTestOptions()
	opts.Retry.MaxAttempts = 1 // a refused frame stays refused
	s, err := New(log, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The first two frames to the node are the two large stripes' rounds:
	// refuse its third, a shared round's.
	inj.Add(faultnet.Rule{Node: refusing, Kind: rpc.KindPrepareBlock, Fault: faultnet.FaultError, After: 2, Count: 1})
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	var refused []string
	seen := 0
	for i, call := range log.calls {
		if call.node != refusing {
			continue
		}
		if seen++; seen == 3 {
			refused = call.ids
			for _, id := range refused {
				if !slices.ContainsFunc(log.calls[i+1:], func(c prepareCall) bool {
					return c.node != refusing && len(c.ids) == 1 && c.ids[0] == id
				}) {
					t.Errorf("refused block %s was never offered bare to a spare", id)
				}
			}
		}
	}
	if len(refused) < 2 {
		t.Fatalf("the refused frame carried %d blocks, want a multi-block frame", len(refused))
	}
	meta, err := s.Meta("obj")
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range meta.Stripes {
		for j, id := range st.BlockIDs {
			if slices.Contains(refused, id) && st.Nodes[j] == refusing {
				t.Errorf("refused block %s placed on the refusing node", id)
			}
		}
	}
	if got, err := s.Get("obj", 0, 0); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back: %v", err)
	}
}

// TestCrashMidRoundRollsBack cuts an overwrite at a multi-block prepare
// frame: the coordinator dies after 20 PrepareBlock frames, inside the third
// round. A fresh coordinator reads exactly the old bytes, a forced orphan
// reconciliation leaves only the committed epoch's blocks, and the object
// scrubs clean.
func TestCrashMidRoundRollsBack(t *testing.T) {
	dataOld, dataNew := skewedObject(t, 66), skewedObject(t, 67)
	s1, inj := newFaultStore(t, 9, 1, fusionTestOptions())
	if _, err := s1.Put("obj", dataOld); err != nil {
		t.Fatal(err)
	}
	inj.CrashClientAfter(rpc.KindPrepareBlock, 20)
	if _, err := s1.Put("obj", dataNew); err == nil || !inj.Crashed() {
		t.Fatalf("the Put must die at its 21st prepare frame: err %v, crashed %v", err, inj.Crashed())
	}
	inj.Reattach()
	s2, err := New(inj, fusionTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s2.Get("obj", 0, 0); err != nil || !bytes.Equal(got, dataOld) {
		t.Fatalf("fresh read after the crash: %v", err)
	}
	if _, err := s2.ReconcileOrphans(context.Background(), true); err != nil {
		t.Fatal(err)
	}
	meta, err := s2.Meta("obj")
	if err != nil {
		t.Fatal(err)
	}
	left := nonRegisterBlocks(t, inj.Inner().(*simnet.Cluster))
	if want := len(meta.Stripes) * s2.opts.Params.N; len(left) != want {
		t.Fatalf("after reconcile the nodes hold %d object blocks, want the committed %d: %v", len(left), want, left)
	}
	for _, b := range left {
		if !strings.Contains(b, fmt.Sprintf(":obj/e%d/", meta.Epoch)) {
			t.Fatalf("debris %s survived reconcile", b)
		}
	}
	if rep, err := s2.Scrub(context.Background(), "obj", ScrubOptions{}); err != nil || rep.MissingBlocks != 0 || rep.CorruptStripes != 0 {
		t.Fatalf("scrub after reconcile: %+v, %v", rep, err)
	}
}

// TestStreamingPutPooledCancelMidStripe extends the poison-on-put discipline
// to a Put cancelled while a stripe's prepares are in flight: two slow nodes
// hold their calls past the cancel. Those calls end with the Put — a call
// never outlives its caller — so nothing reads the stripe's arenas once the
// Put has returned, and they go straight back to the pool. The Put must
// report the context's error, the slowed prepares must never land, every
// block any node holds must still match its recorded CRC, and the name must
// stay writable.
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
	// Past the time the slowed prepares would have been sent, neither node
	// holds a block of the object: the cancelled calls ended with the Put.
	time.Sleep(2 * slow)
	cl := inj.Inner().(*simnet.Cluster)
	for _, node := range []int{2, 5} {
		if slices.ContainsFunc(cl.Node(node).Blocks.IDs(), func(id string) bool { return !strings.HasPrefix(id, "kv/") }) {
			t.Fatalf("a prepare to node %d landed after the Put that sent it had returned", node)
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
