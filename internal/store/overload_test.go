package store

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/fusionstore/fusion/internal/simnet"
)

// TestCancelledContextFailsOps: a context dead before the call must fail
// every public ctx-aware entry point with the context's own error, never a
// transport or availability error.
func TestCancelledContextFailsOps(t *testing.T) {
	data, _, _ := makeObject(t, 2, 200, 41)
	s, _ := newSimStore(t, fusionTestOptions())
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := s.GetContext(ctx, "obj", 0, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("GetContext = %v, want context.Canceled", err)
	}
	if _, err := s.QueryContext(ctx, "SELECT id FROM obj WHERE qty < 10"); !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryContext = %v, want context.Canceled", err)
	}
	if err := s.DeleteContext(ctx, "obj"); !errors.Is(err, context.Canceled) {
		t.Fatalf("DeleteContext = %v, want context.Canceled", err)
	}
	// The object must have survived the cancelled delete.
	if _, err := s.Get("obj", 0, 0); err != nil {
		t.Fatalf("object damaged by cancelled delete: %v", err)
	}
}

// TestDoneContextFailsBeforeAnyCall: with no admission layer in front of the
// foreground ops, each one must itself refuse a context that is already
// cancelled or past its deadline — with that context's error, before a single
// request leaves the coordinator, and without touching the stored objects.
func TestDoneContextFailsBeforeAnyCall(t *testing.T) {
	data, _, _ := makeObject(t, 2, 200, 43)
	tap := &tapClient{inner: simnet.New(simnet.DefaultConfig())}
	s, err := New(tap, fusionTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	// Warm the metadata cache, so a Get or Query that skipped its context
	// check would find the layout locally and go straight to the nodes.
	if _, err := s.Get("obj", 0, 0); err != nil {
		t.Fatal(err)
	}

	dones := []struct {
		name string
		ctx  func() (context.Context, context.CancelFunc)
		want error
	}{
		{"cancelled", func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return ctx, cancel
		}, context.Canceled},
		{"expired", func() (context.Context, context.CancelFunc) {
			return context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		}, context.DeadlineExceeded},
	}
	ops := []struct {
		name string
		run  func(ctx context.Context) error
	}{
		{"Get", func(ctx context.Context) error {
			_, err := s.GetContext(ctx, "obj", 0, 0)
			return err
		}},
		{"RangedGet", func(ctx context.Context) error {
			_, err := s.GetContext(ctx, "obj", 0, 64)
			return err
		}},
		{"Put", func(ctx context.Context) error {
			_, err := s.PutContext(ctx, "fresh", data)
			return err
		}},
		{"Overwrite", func(ctx context.Context) error {
			_, err := s.PutContext(ctx, "obj", data[:len(data)/2])
			return err
		}},
		{"Delete", func(ctx context.Context) error { return s.DeleteContext(ctx, "obj") }},
		{"Query", func(ctx context.Context) error {
			_, err := s.QueryContext(ctx, "SELECT id FROM obj WHERE qty < 10")
			return err
		}},
		{"Scrub", func(ctx context.Context) error {
			_, err := s.Scrub(ctx, "obj", ScrubOptions{Repair: true})
			return err
		}},
		{"ScrubAll", func(ctx context.Context) error {
			_, err := s.ScrubAll(ctx, ScrubOptions{Repair: true})
			return err
		}},
		{"RepairNodeAll", func(ctx context.Context) error {
			_, err := s.RepairNodeAll(ctx, 0)
			return err
		}},
		{"ReconcileOrphans", func(ctx context.Context) error {
			_, err := s.ReconcileOrphans(ctx, true)
			return err
		}},
	}
	for _, d := range dones {
		for _, op := range ops {
			t.Run(d.name+"/"+op.name, func(t *testing.T) {
				ctx, cancel := d.ctx()
				defer cancel()
				before := tap.count()
				if err := op.run(ctx); !errors.Is(err, d.want) {
					t.Fatalf("%s = %v, want %v", op.name, err, d.want)
				}
				if n := tap.count() - before; n != 0 {
					t.Fatalf("%s with a done context made %d node calls, want 0", op.name, n)
				}
				if got, err := s.Get("obj", 0, 0); err != nil || !bytes.Equal(got, data) {
					t.Fatalf("obj after a refused %s: err %v, %d bytes (want %d, byte-exact)",
						op.name, err, len(got), len(data))
				}
				if _, err := s.Get("fresh", 0, 0); err == nil {
					t.Fatalf("a refused %s left an object named fresh", op.name)
				}
			})
		}
	}
}

// TestQueryDeadlineNoGoroutineLeak: queries abandoned at their deadline must
// not strand fan-out goroutines. The store's worker pools are per-query, so
// a leak here shows up as a monotonically growing goroutine count.
func TestQueryDeadlineNoGoroutineLeak(t *testing.T) {
	data, _, _ := makeObject(t, 4, 400, 42)
	s, _ := newSimStore(t, fusionTestOptions())
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	// Warm once so lazily-started machinery doesn't count as a leak.
	if _, err := s.Query("SELECT COUNT(*) FROM obj"); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	for i := 0; i < 25; i++ {
		// A budget short enough that many runs die mid-fan-out, long enough
		// that some complete: both paths must clean up.
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(50+i*100)*time.Microsecond)
		_, err := s.QueryContext(ctx, "SELECT id FROM obj WHERE qty < 10")
		cancel()
		if err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
			t.Fatalf("query %d: unclassified error under deadline: %v", i, err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
