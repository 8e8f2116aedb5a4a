package store

import (
	"bytes"
	"testing"

	"github.com/fusionstore/fusion/internal/simnet"
)

// TestOverwriteMetaNeverStale is the quorum-register guarantee: a metadata
// replica that was down during an overwrite must never serve the old
// version to a fresh coordinator, even when the replicas that took the
// write are themselves down afterwards — because write and read majorities
// overlap.
func TestOverwriteMetaNeverStale(t *testing.T) {
	v1, _, _ := makeObject(t, 2, 200, 111)
	v2, _, _ := makeObject(t, 2, 220, 112)
	// 12 nodes so RS(9,6) data placement can route around 3 down nodes.
	cfg := simnet.DefaultConfig()
	cfg.Nodes = 12
	cl := simnet.New(cfg)
	opts := fusionTestOptions()
	s, err := New(cl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("obj", v1); err != nil {
		t.Fatal(err)
	}
	replicas := s.metaReplicaNodes("obj") // 7 replicas, majority 4
	if len(replicas) != 7 {
		t.Fatalf("expected k+1=7 meta replicas, got %d", len(replicas))
	}
	// Three replicas miss the overwrite (the tolerance limit).
	for _, n := range replicas[:3] {
		cl.SetDown(n, true)
	}
	if _, err := s.Put("obj", v2); err != nil {
		t.Fatalf("overwrite with 3 meta replicas down: %v", err)
	}
	// The laggards return; three of the replicas that took the write go
	// away. The alive set still holds a majority, but only one of its
	// members saw the overwrite.
	for _, n := range replicas[:3] {
		cl.SetDown(n, false)
	}
	for _, n := range replicas[3:6] {
		cl.SetDown(n, true)
	}
	defer func() {
		for _, n := range replicas[3:6] {
			cl.SetDown(n, false)
		}
	}()
	// A fresh coordinator (no cache) must observe version 1 — reading v0
	// metadata here would point at garbage-collected v0 blocks.
	s2, err := New(cl, opts)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := s2.Meta("obj")
	if err != nil {
		t.Fatal(err)
	}
	if meta.Version != 1 {
		t.Fatalf("stale metadata served: version %d, want 1", meta.Version)
	}
	if meta.Size != uint64(len(v2)) {
		t.Fatalf("meta size %d, want %d", meta.Size, len(v2))
	}
	// And the object reads back as v2 (data nodes may need degraded reads
	// since some are down, which Get handles).
	got, err := s2.Get("obj", 0, 0)
	if err != nil {
		t.Fatalf("read after failover: %v", err)
	}
	if !bytes.Equal(got, v2) {
		t.Fatal("read returned the wrong version's bytes")
	}
}

// TestPutRoutesAroundDownNodes: with more nodes than n, Put places stripes
// on healthy nodes even while some are unreachable.
func TestPutRoutesAroundDownNodes(t *testing.T) {
	data, _, _ := makeObject(t, 2, 200, 113)
	cfg := simnet.DefaultConfig()
	cfg.Nodes = 12
	cl := simnet.New(cfg)
	opts := fusionTestOptions()
	s, err := New(cl, opts)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetDown(2, true)
	cl.SetDown(7, true)
	cl.SetDown(11, true)
	if _, err := s.Put("obj", data); err != nil {
		t.Fatalf("Put with 3 of 12 nodes down: %v", err)
	}
	meta, err := s.Meta("obj")
	if err != nil {
		t.Fatal(err)
	}
	for si, st := range meta.Stripes {
		seen := map[int]bool{}
		for _, n := range st.Nodes {
			if n == 2 || n == 7 || n == 11 {
				t.Fatalf("stripe %d placed a block on a down node %d", si, n)
			}
			if seen[n] {
				t.Fatalf("stripe %d reused node %d", si, n)
			}
			seen[n] = true
		}
	}
	got, err := s.Get("obj", 0, 0)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after degraded placement: %v", err)
	}
}
