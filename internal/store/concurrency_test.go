package store

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestConcurrentQueries exercises the coordinator under parallel load: many
// goroutines issuing queries and reads against the same object must all see
// consistent results.
func TestConcurrentQueries(t *testing.T) {
	data, _, _ := makeObject(t, 3, 500, 77)
	s, _ := newSimStore(t, fusionTestOptions())
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	want, err := s.Query("SELECT id FROM obj WHERE qty < 10")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 48)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 3 {
			case 0:
				res, err := s.Query("SELECT id FROM obj WHERE qty < 10")
				if err != nil {
					errs <- err
					return
				}
				if res.Rows != want.Rows {
					errs <- fmt.Errorf("goroutine %d: %d rows, want %d", i, res.Rows, want.Rows)
				}
			case 1:
				got, err := s.Get("obj", 100, 5000)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, data[100:5100]) {
					errs <- fmt.Errorf("goroutine %d: Get mismatch", i)
				}
			default:
				res, err := s.Query("SELECT COUNT(*) FROM obj WHERE flag = 'A'")
				if err != nil {
					errs <- err
					return
				}
				if res.AggValues[0].I == 0 {
					errs <- fmt.Errorf("goroutine %d: empty count", i)
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentPuts stores distinct objects in parallel and verifies each.
func TestConcurrentPuts(t *testing.T) {
	s, _ := newSimStore(t, fusionTestOptions())
	const objects = 8
	payloads := make([][]byte, objects)
	var wg sync.WaitGroup
	errs := make(chan error, objects)
	for i := 0; i < objects; i++ {
		data, _, _ := makeObject(t, 2, 150, int64(1000+i))
		payloads[i] = data
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Put(fmt.Sprintf("obj-%d", i), payloads[i]); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 0; i < objects; i++ {
		got, err := s.Get(fmt.Sprintf("obj-%d", i), 0, 0)
		if err != nil || !bytes.Equal(got, payloads[i]) {
			t.Fatalf("object %d round trip failed: %v", i, err)
		}
	}
}

// TestParallelQueryUnderConcurrentLoad drives the fan-out query path (stage
// worker pools forced wide) while other goroutines Put fresh objects, read
// the queried one's first 64 bytes and Scrub it, so `go test -race`
// exercises the execState locking and the fork/join merging together with
// the erasure coder's parallel Verify/Reconstruct ranges, and a ranged Get
// must stay byte-exact while queries run on the same object.
func TestParallelQueryUnderConcurrentLoad(t *testing.T) {
	data, _, _ := makeObject(t, 3, 400, 55)
	opts := fusionTestOptions()
	opts.QueryWorkers = 8
	s, _ := newSimStore(t, opts)
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	want, err := s.Query("SELECT id, price FROM obj WHERE qty < 20")
	if err != nil {
		t.Fatal(err)
	}
	wantCount, err := s.Query("SELECT COUNT(*), SUM(qty) FROM obj WHERE flag = 'A'")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 30; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 5 {
			case 0:
				res, err := s.Query("SELECT id, price FROM obj WHERE qty < 20")
				if err != nil {
					errs <- err
					return
				}
				if res.Rows != want.Rows || !reflect.DeepEqual(res.Data, want.Data) {
					errs <- fmt.Errorf("goroutine %d: parallel query diverged", i)
				}
			case 1:
				res, err := s.Query("SELECT COUNT(*), SUM(qty) FROM obj WHERE flag = 'A'")
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(res.AggValues, wantCount.AggValues) {
					errs <- fmt.Errorf("goroutine %d: aggregate diverged", i)
				}
			case 2:
				other, _, _ := makeObject(t, 2, 120, int64(500+i))
				name := fmt.Sprintf("side-%d", i)
				if _, err := s.Put(name, other); err != nil {
					errs <- err
					return
				}
				if got, err := s.Get(name, 0, 0); err != nil || !bytes.Equal(got, other) {
					errs <- fmt.Errorf("goroutine %d: side object round trip: %v", i, err)
				}
			case 3:
				got, err := s.Get("obj", 0, 64)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, data[:64]) {
					errs <- fmt.Errorf("goroutine %d: ranged get returned wrong bytes beside queries", i)
				}
			default:
				rep, err := s.Scrub(context.Background(), "obj", ScrubOptions{Repair: true})
				if err != nil {
					errs <- err
					return
				}
				if rep.CorruptStripes != 0 || rep.MissingBlocks != 0 {
					errs <- fmt.Errorf("goroutine %d: scrub found damage on healthy object: %+v", i, rep)
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRepairNodeRestoresMetaReplica verifies node repair also restores
// metadata replicas hosted on the repaired node.
func TestRepairNodeRestoresMetaReplica(t *testing.T) {
	data, _, _ := makeObject(t, 2, 200, 88)
	s, cl := newSimStore(t, fusionTestOptions())
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	victim := s.metaReplicaNodes("obj")[1]
	node := cl.Node(victim)
	for _, id := range node.Blocks.IDs() {
		if err := node.Blocks.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.RepairNode(context.Background(), "obj", victim); err != nil {
		t.Fatal(err)
	}
	if _, err := node.Blocks.Size(metaBlockID("obj")); err != nil {
		t.Fatal("meta replica must be restored after repair")
	}
}
