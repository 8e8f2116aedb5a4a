package store

import (
	"bytes"
	"context"
	"errors"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/faultnet"
	"github.com/fusionstore/fusion/internal/metrics"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/simnet"
	"github.com/fusionstore/fusion/internal/trace"
)

// These tests pin the one path off the coordinator: the metadata register's
// calls are Store.call like every other, so they observe the caller's
// deadline and Options.Retry, and show up in the health counters,
// the rpc histograms and the span tree.

// hookClient runs before as a call enters the transport and after once it has
// returned.
type hookClient struct {
	cluster.Client
	before, after func(node int, req *rpc.Request)
}

func (c *hookClient) Call(node int, req *rpc.Request) (*rpc.Response, error) {
	if c.before != nil {
		c.before(node, req)
	}
	resp, err := c.Client.Call(node, req)
	if c.after != nil {
		c.after(node, req)
	}
	return resp, err
}

// TestOnePathAccounting is the accounting invariant: for a traced small
// overwrite, cold Get, cold Query and Delete, the span tree, the health
// counters and the rpc histograms each account exactly the calls the
// transport saw — register traffic and delete frames included — while round
// trips, bytes from nodes and read amplification stay figures of the read
// side's data plane.
func TestOnePathAccounting(t *testing.T) {
	cl := &kindCounter{Client: simnet.New(simnet.DefaultConfig()), kinds: map[rpc.Kind]int{}}
	opts := scatterTestOptions()
	opts.Metrics = metrics.NewHistogramSet()
	s, err := New(cl, opts)
	if err != nil {
		t.Fatal(err)
	}
	data, _, _ := makeObject(t, 1, 200, 71)
	if stats, err := s.Put("obj", data); err != nil || stats.Stripes != 1 {
		t.Fatalf("seeding a one-stripe object: %+v, %v", stats, err)
	}
	ops := []struct {
		name                   string
		calls, roundTrips, amp uint64 // amp: read amplification, 0 when nothing was requested
		run                    func(ctx context.Context) error
	}{
		// 21 register calls (epoch Incr 7, previous version 7, publish 7),
		// 9 prepares, 9 commits, 9 delete frames.
		{"overwrite", 48, 0, 0, func(ctx context.Context) error {
			_, err := s.PutContext(ctx, "obj", data)
			return err
		}},
		// 7 register reads, then the 6 data blocks, each alone on its node.
		{"cold get", 13, 6, 1, func(ctx context.Context) error {
			s.cache.DeleteMeta("obj")
			got, err := s.GetContext(ctx, "obj", 0, 0)
			if err == nil && !bytes.Equal(got, data) {
				err = errors.New("read back different bytes")
			}
			return err
		}},
		// 7 register reads, then a frame to each of the two nodes holding a
		// filtered column and the two holding a projected one.
		{"cold query", 11, 4, 0, func(ctx context.Context) error {
			s.cache.DeleteMeta("obj")
			_, err := s.QueryContext(ctx, "SELECT id, price FROM obj WHERE qty < 10 AND flag = 'A'")
			return err
		}},
		// 7 register reads, 9 delete frames, 7 register deletes.
		{"delete", 23, 0, 0, func(ctx context.Context) error {
			return s.DeleteContext(ctx, "obj")
		}},
	}
	for _, op := range ops {
		cl.reset()
		s.Health().Reset()
		opts.Metrics.Reset()
		ctx, root := trace.Start(context.Background(), op.name)
		err := op.run(ctx)
		root.End()
		if err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		var calls uint64
		for kind, n := range cl.kinds {
			calls += uint64(n)
			if h, _ := opts.Metrics.Merged("rpc." + kind.String()); h.Count != uint64(n) {
				t.Errorf("%s: %d rpc.%v observations, the transport saw %d", op.name, h.Count, kind, n)
			}
		}
		if calls != op.calls {
			t.Errorf("%s: the transport saw %d calls, want %d: %v", op.name, calls, op.calls, cl.kinds)
		}
		if got := root.Total(trace.RPCs); got != calls {
			t.Errorf("%s: the span tree accounts %d rpcs, the transport saw %d\n%s", op.name, got, calls, root.Tree())
		}
		if got := s.Health().Total().Calls; got != calls {
			t.Errorf("%s: the health counters account %d calls, the transport saw %d", op.name, got, calls)
		}
		if got := root.Total(trace.RoundTrips); got != op.roundTrips {
			t.Errorf("%s: %d round trips, want %d (data plane only)", op.name, got, op.roundTrips)
		}
		if op.amp != 0 && root.ReadAmplification() != float64(op.amp) {
			t.Errorf("%s: read amplification %.3f, want %d", op.name, root.ReadAmplification(), op.amp)
		}
		if op.roundTrips == 0 && root.Total(trace.BytesFromNodes) != 0 {
			t.Errorf("%s: %d bytes from nodes on a span with no data-plane call", op.name, root.Total(trace.BytesFromNodes))
		}
	}
}

// TestMetaReadObservesDeadline: a cold metadata read runs under the caller's
// deadline. One register replica hangs for 2 s per call; a Get with 50 ms to
// live gives up at its deadline, not when the replica lets go.
func TestMetaReadObservesDeadline(t *testing.T) {
	s, inj := newFaultStore(t, 9, 1, fusionTestOptions())
	data, _, _ := makeObject(t, 1, 200, 72)
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	s.cache.DeleteMeta("obj")
	inj.Add(faultnet.Rule{Node: s.metaReplicaNodes("obj")[0], Kind: rpc.KindGetBlock, Fault: faultnet.FaultHang, Delay: 2 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.GetContext(ctx, "obj", 0, 0)
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Errorf("Get with a 50ms deadline returned after %v", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

// TestPublishOutlivesCancellation: the publish's register writes never
// observe the caller's context. The caller cancels as the publish's first
// register write enters the transport, and every write is slow enough that an
// attempt abandoned at the cancel would still be in flight when Put returned:
// Put returns only once every write it started has, and the publish lands.
func TestPublishOutlivesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var entered, returned atomic.Int64
	publish := func(req *rpc.Request) bool {
		return req.Kind == rpc.KindPutBlock && req.BlockID == metaBlockID("obj")
	}
	cl := &hookClient{
		Client: simnet.New(simnet.DefaultConfig()),
		before: func(_ int, req *rpc.Request) {
			if publish(req) {
				entered.Add(1)
				cancel()
				time.Sleep(10 * time.Millisecond)
			}
		},
		after: func(_ int, req *rpc.Request) {
			if publish(req) {
				returned.Add(1)
			}
		},
	}
	s, err := New(cl, fusionTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	data, _, _ := makeObject(t, 1, 200, 74)
	_, err = s.PutReader(ctx, "obj", bytes.NewReader(data), uint64(len(data)))
	in, out := entered.Load(), returned.Load()
	if err != nil {
		t.Fatalf("Put cancelled past its commit-point check: %v", err)
	}
	if want := int64(s.opts.Params.K + 1); in != want || out != in {
		t.Fatalf("Put returned with %d of %d publish writes back, want all %d", out, in, want)
	}
	fresh, err := New(cl, fusionTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got, err := fresh.Get("obj", 0, 0); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("the publish did not land: %v", err)
	}
}

// TestOverwriteFailsWhenPrevUnresolved: only the register answering "not
// found" makes a Put a fresh insert. An overwrite whose commit-point quorum
// read fails is rolled back and fails — publishing over it would reset Version
// and strand the superseded epoch's blocks — and the previous version stays
// readable.
func TestOverwriteFailsWhenPrevUnresolved(t *testing.T) {
	s, inj := newFaultStore(t, 9, 1, fusionTestOptions())
	cl := inj.Inner().(*simnet.Cluster)
	v1, _, _ := makeObject(t, 1, 200, 75)
	v2, _, _ := makeObject(t, 1, 220, 76)
	for _, data := range [][]byte{v1, v1} { // Version 0, then 1
		if _, err := s.Put("obj", data); err != nil {
			t.Fatal(err)
		}
	}
	clean := len(nonRegisterBlocks(t, cl))
	// An overwrite's epoch Incr reads nothing, so its first seven GetBlocks,
	// each tried three times, are the commit-point read.
	inj.Add(faultnet.Rule{Node: faultnet.NodeAny, Kind: rpc.KindGetBlock, Fault: faultnet.FaultError, After: 0, Count: 21})
	if _, err := s.Put("obj", v2); err == nil {
		t.Fatal("an overwrite that could not resolve the previous version succeeded")
	}
	if inj.InjectedTotal() != 21 {
		t.Fatalf("injected %d faults, want the 21 attempts of one quorum read", inj.InjectedTotal())
	}
	if left := nonRegisterBlocks(t, cl); len(left) != clean {
		t.Fatalf("the failed overwrite left %d blocks on the nodes, want %d: %v", len(left), clean, left)
	}
	meta, err := s.metaQuorum(context.Background(), nil, "obj")
	if err != nil || meta.Version != 1 {
		t.Fatalf("previous version after the failed overwrite: %+v, %v", meta, err)
	}
	if got, err := s.Get("obj", 0, 0); err != nil || !bytes.Equal(got, v1) {
		t.Fatalf("previous version unreadable after the failed overwrite: %v", err)
	}
	if _, err := s.Put("obj", v2); err != nil {
		t.Fatal(err)
	}
	if meta, err = s.metaQuorum(context.Background(), nil, "obj"); err != nil || meta.Version != 2 {
		t.Fatalf("after a clean overwrite: %+v, %v", meta, err)
	}
	if left := nonRegisterBlocks(t, cl); len(left) != clean {
		t.Fatalf("a clean overwrite leaves %d blocks, want %d", len(left), clean)
	}
}

// TestStoreImportsNoSimulator: the store counts, the simulator prices. The
// coordinator's code imports neither the latency model nor the experiment
// harness that pairs the two; only its tests may.
func TestStoreImportsNoSimulator(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		files++
		for _, imp := range f.Imports {
			if p := strings.Trim(imp.Path.Value, `"`); strings.HasSuffix(p, "/internal/simnet") || strings.HasSuffix(p, "/internal/workload") {
				t.Errorf("%s imports %s", name, p)
			}
		}
	}
	if files == 0 {
		t.Fatal("found no non-test file of internal/store")
	}
}

// TestNoPackageImportsGob: the register value (EncodeMeta) and every RPC
// frame (internal/rpc/wire.go) have codecs of their own, so no file of the
// repository — program, test or tool — keeps an encoding/gob path beside them.
func TestNoPackageImportsGob(t *testing.T) {
	files := 0
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "../.." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir // tool state and the benchmark's build cache
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		for _, imp := range f.Imports {
			if imp.Path.Value == `"encoding/gob"` {
				t.Errorf("%s imports encoding/gob", path)
			}
		}
		return nil
	})
	if err != nil || files < 100 {
		t.Fatalf("read %d Go files of the repository: %v", files, err)
	}
}
