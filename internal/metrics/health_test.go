package metrics

import (
	"strings"
	"sync"
	"testing"
)

// TestHealthCounters: each recorder method bumps its own counter on its own
// node, concurrently; Total sums the nodes, Reset zeroes them, String lists
// the non-zero nodes in id order, and a nil *Health records nothing.
func TestHealthCounters(t *testing.T) {
	h := NewHealth()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				h.Call(2)
				h.Failure(2)
				h.Retry(0)
				h.Timeout(2)
				h.Checksum(0)
			}
		}()
	}
	wg.Wait()
	h.Call(0)

	if got, want := h.Node(0), (NodeHealth{Calls: 1, Retries: 400, Checksums: 400}); got != want {
		t.Fatalf("node 0: %+v, want %+v", got, want)
	}
	if got, want := h.Node(2), (NodeHealth{Calls: 400, Failures: 400, Timeouts: 400}); got != want {
		t.Fatalf("node 2: %+v, want %+v", got, want)
	}
	if got := h.Node(1); got != (NodeHealth{}) {
		t.Fatalf("node 1 was never called, has %+v", got)
	}
	if got, want := h.Total(), (NodeHealth{Calls: 401, Failures: 400, Retries: 400, Timeouts: 400, Checksums: 400}); got != want {
		t.Fatalf("total: %+v, want %+v", got, want)
	}
	if snap := h.Snapshot(); len(snap) != 2 {
		t.Fatalf("snapshot holds %d nodes, want 2: %v", len(snap), snap)
	}
	want := "node 0: calls 1 fail 0 retry 400 timeout 0 checksums 400\n" +
		"node 2: calls 400 fail 400 retry 0 timeout 400 checksums 0\n"
	if got := h.String(); got != want {
		t.Fatalf("String:\n%s\nwant:\n%s", got, want)
	}

	h.Reset()
	if got := h.Total(); got != (NodeHealth{}) || h.String() != "" {
		t.Fatalf("after Reset: total %+v, String %q", got, h.String())
	}

	var none *Health
	none.Call(1)
	none.Checksum(1)
	none.Reset()
	if none.Node(1) != (NodeHealth{}) || none.Total() != (NodeHealth{}) || len(none.Snapshot()) != 0 || strings.TrimSpace(none.String()) != "" {
		t.Fatal("a nil *Health must record nothing and report zeroes")
	}
}
