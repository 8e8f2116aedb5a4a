package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/fusionstore/fusion/internal/faultnet"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/trace"
)

// TestChaosSoak runs concurrent Put/Get/Query/Scrub for a short, seeded
// window under a random fault schedule: up to 2 crashed nodes (revived and
// re-crashed by the chaos controller), one flaky node injecting transient
// errors, and one node whose block reads are sometimes slow. With at most
// 2 (down) + 1 (flaky) = n−k unreliable nodes, every read and query must
// succeed bit-identically; the only permitted failure anywhere is the
// ErrTooManyFailures sentinel (a Put can hit it: a stripe needs n healthy
// target nodes and the schedule may leave fewer).
func TestChaosSoak(t *testing.T) {
	seed := faultSeed(t)
	const (
		flakyNode = 0
		slowNode  = 1
		maxDown   = 2 // + 1 flaky = n−k for RS(9,6)
	)
	s, inj := newFaultStore(t, 9, seed, fusionTestOptions())

	// Stable objects are written healthy and never overwritten: their
	// contents and query results are the ground truth the workers check.
	const query = "SELECT qty, price FROM %s WHERE flag = 'A' AND qty > 10"
	type stable struct {
		name string
		data []byte
		rows int
	}
	var stables []stable
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("stable-%d", i)
		data, _, _ := makeObject(t, 2, 150, seed+int64(i))
		if _, err := s.Put(name, data); err != nil {
			t.Fatal(err)
		}
		res, err := s.Query(fmt.Sprintf(query, name))
		if err != nil {
			t.Fatal(err)
		}
		stables = append(stables, stable{name: name, data: data, rows: res.Rows})
	}

	// Fault schedule: transient errors on one node, slow reads on another,
	// and a seeded random walk crashing/reviving up to maxDown nodes.
	inj.Add(faultnet.Rule{Node: flakyNode, Kind: faultnet.KindAny, Fault: faultnet.FaultError, Prob: 0.2})
	inj.Add(faultnet.Rule{Node: slowNode, Kind: rpc.KindGetBlock, Fault: faultnet.FaultSlow, Prob: 0.1, Delay: 5 * time.Millisecond})
	chaos := faultnet.StartChaos(inj, seed, faultnet.ChaosConfig{
		MaxDown:    maxDown,
		ToggleProb: 0.7,
		Step:       5 * time.Millisecond,
	})

	soak := 2 * time.Second
	if testing.Short() {
		soak = 500 * time.Millisecond
	}
	deadline := time.Now().Add(soak)
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	report := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}

	// Readers: random ranges of stable objects, bytes must match exactly.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(100+w)))
			for time.Now().Before(deadline) {
				st := stables[rng.Intn(len(stables))]
				off := uint64(rng.Intn(len(st.data)))
				length := uint64(rng.Intn(len(st.data)-int(off))) + 1
				got, err := s.Get(st.name, off, length)
				if err != nil {
					report(fmt.Errorf("get %s [%d,%d): %w", st.name, off, off+length, err))
					return
				}
				if !bytes.Equal(got, st.data[off:off+length]) {
					report(fmt.Errorf("get %s [%d,%d): bytes differ", st.name, off, off+length))
					return
				}
			}
		}(w)
	}
	// Queries: row counts must match the healthy result.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed + 200))
		for time.Now().Before(deadline) {
			st := stables[rng.Intn(len(stables))]
			res, err := s.Query(fmt.Sprintf(query, st.name))
			if err != nil {
				report(fmt.Errorf("query %s: %w", st.name, err))
				return
			}
			if res.Rows != st.rows {
				report(fmt.Errorf("query %s: %d rows, want %d", st.name, res.Rows, st.rows))
				return
			}
		}
	}()
	// Writer: fresh names; a Put may fail with the sentinel (stripes need n
	// healthy nodes), but a successful Put must be durably readable.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; time.Now().Before(deadline); i++ {
			name := fmt.Sprintf("chaos-%d", i)
			data, _, _ := makeObject(t, 1, 60, seed+int64(1000+i))
			if _, err := s.Put(name, data); err != nil {
				if !errors.Is(err, ErrTooManyFailures) {
					report(fmt.Errorf("put %s: %w", name, err))
					return
				}
				continue
			}
			got, err := s.Get(name, 0, 0)
			if err != nil {
				report(fmt.Errorf("get-after-put %s: %w", name, err))
				return
			}
			if !bytes.Equal(got, data) {
				report(fmt.Errorf("get-after-put %s: bytes differ", name))
				return
			}
		}
	}()
	// Scrubber: report-only scrubs must never error below the tolerance.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed + 300))
		for time.Now().Before(deadline) {
			st := stables[rng.Intn(len(stables))]
			if _, err := s.Scrub(context.Background(), st.name, ScrubOptions{}); err != nil {
				report(fmt.Errorf("scrub %s: %w", st.name, err))
				return
			}
		}
	}()

	wg.Wait()
	chaos.Stop()
	close(errCh)
	for err := range errCh {
		t.Errorf("seed %d (%s): %v\nhealth:\n%s", seed, chaos, err, s.Health())
	}
	total := s.Health().Total()
	t.Logf("soak done: %d injected faults; calls %d fail %d retry %d timeout %d",
		inj.InjectedTotal(), total.Calls, total.Failures, total.Retries, total.Timeouts)
	if total.Retries == 0 {
		t.Error("soak never exercised the retry path")
	}

	// Over-tolerance phase: crash n−k+1 nodes and the sentinel must surface.
	inj.ClearRules()
	inj.ReviveAll()
	for node := 0; node < 4; node++ {
		inj.SetDown(node, true)
	}
	if _, err := s.Get(stables[0].name, 0, 0); !errors.Is(err, ErrTooManyFailures) {
		t.Fatalf("seed %d: want ErrTooManyFailures with 4 nodes down, got %v", seed, err)
	}
	inj.ReviveAll()
	if got, err := s.Get(stables[0].name, 0, 0); err != nil || !bytes.Equal(got, stables[0].data) {
		t.Fatalf("seed %d: recovery after revival failed: %v", seed, err)
	}
}

// putBehindSlowNode stores an object and then delays every block read of the
// node holding stripe 0's data bin 0 by 50ms, bare or in a batch frame.
func putBehindSlowNode(t *testing.T, seed int64, opts Options) (*Store, *faultnet.Injector, []byte) {
	t.Helper()
	s, inj := newFaultStore(t, 9, seed, opts)
	data, _, _ := makeObject(t, 2, 200, seed)
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	meta, err := s.Meta("obj")
	if err != nil {
		t.Fatal(err)
	}
	slow := meta.Stripes[0].Nodes[0]
	for _, kind := range []rpc.Kind{rpc.KindGetBlock, rpc.KindBatch} {
		inj.Add(faultnet.Rule{Node: slow, Kind: kind, Fault: faultnet.FaultSlow, Delay: 50 * time.Millisecond})
	}
	return s, inj, data
}

// TestSlowNodeIsWaitedFor pins the read rule's one strategy: a node that is
// slow but healthy is waited for. Only a failed direct read starts the
// reconstruction fan-out, so every way block bytes are read returns the
// right bytes with no degraded read, and a whole-object Get costs no more
// round trips than its data blocks. (A slow node that outlasts the caller's
// deadline is a case of TestExpiredDeadlineIsNotTooManyFailures.)
func TestSlowNodeIsWaitedFor(t *testing.T) {
	seed := faultSeed(t)
	const query = "SELECT id, qty, price, flag, comment FROM obj WHERE qty > 10"
	legs := []struct {
		name  string
		opts  func() Options
		whole bool // a whole-object Get: at most one round trip per data block
		// read returns what the read got and what it should have got.
		read func(t *testing.T, ctx context.Context, s *Store, data []byte) (got, want string, err error)
	}{
		{name: "whole-object Get", opts: fusionTestOptions, whole: true},
		{name: "whole-object Get, cache on", opts: cacheTestOptions, whole: true},
		{name: "ranged Get inside the slow block", opts: fusionTestOptions,
			read: func(t *testing.T, ctx context.Context, s *Store, data []byte) (string, string, error) {
				meta, err := s.Meta("obj")
				if err != nil {
					t.Fatal(err)
				}
				for i, loc := range meta.ItemLocs {
					if it := meta.Items[i]; loc.Stripe == 0 && loc.Bin == 0 && it.Size > 8 {
						got, err := s.GetContext(ctx, "obj", it.Offset+2, 5)
						return string(got), string(data[it.Offset+2 : it.Offset+7]), err
					}
				}
				t.Fatal("no item of six or more bytes in stripe 0's data bin 0")
				return "", "", nil
			}},
		{name: "query chunk fetch (baseline)", opts: BaselineOptions,
			read: func(t *testing.T, ctx context.Context, s *Store, data []byte) (string, string, error) {
				healthy, _ := newSimStore(t, BaselineOptions())
				if _, err := healthy.Put("obj", data); err != nil {
					t.Fatal(err)
				}
				want, err := healthy.Query(query)
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.QueryContext(ctx, query)
				if err != nil {
					return "", "", err
				}
				return fmt.Sprint(got.Rows, got.Data), fmt.Sprint(want.Rows, want.Data), nil
			}},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			s, inj, data := putBehindSlowNode(t, seed, leg.opts())
			read := leg.read
			if read == nil {
				read = func(_ *testing.T, ctx context.Context, s *Store, data []byte) (string, string, error) {
					got, err := s.GetContext(ctx, "obj", 0, 0)
					return string(got), string(data), err
				}
			}
			ctx, sp := trace.Start(context.Background(), "test.read")
			got, want, err := read(t, ctx, s, data)
			sp.End()
			if err != nil {
				t.Fatalf("seed %d: read behind a slow node: %v", seed, err)
			}
			if got != want {
				t.Fatalf("seed %d: read behind a slow node returned wrong bytes", seed)
			}
			if inj.InjectedTotal() == 0 {
				t.Fatalf("seed %d: the read never reached the slow node", seed)
			}
			if d := sp.Total(trace.DegradedReads); d != 0 {
				t.Fatalf("seed %d: %d degraded reads against a slow but healthy node", seed, d)
			}
			if !leg.whole {
				return
			}
			meta, err := s.Meta("obj")
			if err != nil {
				t.Fatal(err)
			}
			blocks := uint64(len(meta.Stripes) * s.opts.Params.K)
			if rt := sp.Total(trace.RoundTrips); rt > blocks {
				t.Fatalf("seed %d: Get of %d data blocks took %d round trips", seed, blocks, rt)
			}
		})
	}
}

// TestScrubDetectsInFlightCorruption drives faultnet's corruption fault
// through Scrub: a flipped byte in one shard's response must fail the
// checksum recorded in the stripe metadata, and a clean pass must follow
// once the fault schedule is exhausted.
func TestScrubDetectsInFlightCorruption(t *testing.T) {
	seed := faultSeed(t)
	s, inj := newFaultStore(t, 9, seed, fusionTestOptions())
	data, _, _ := makeObject(t, 1, 150, seed)
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	inj.Add(faultnet.Rule{Node: faultnet.NodeAny, Kind: rpc.KindGetBlock, Fault: faultnet.FaultCorrupt, Count: 1})
	rep, err := s.Scrub(context.Background(), "obj", ScrubOptions{})
	if err != nil {
		t.Fatalf("seed %d: scrub: %v", seed, err)
	}
	if rep.ChecksumFailures == 0 {
		t.Fatalf("seed %d: scrub missed the corrupted shard: %+v", seed, rep)
	}
	rep, err = s.Scrub(context.Background(), "obj", ScrubOptions{})
	if err != nil || rep.CorruptStripes != 0 || rep.MissingBlocks != 0 || rep.ChecksumFailures != 0 {
		t.Fatalf("seed %d: clean scrub after fault exhausted: %+v %v", seed, rep, err)
	}
}
