package rpc

import (
	"testing"

	"github.com/fusionstore/fusion/internal/sql"
)

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindPing:        "Ping",
		KindPutBlock:    "PutBlock",
		KindGetBlock:    "GetBlock",
		KindDeleteBlock: "DeleteBlock",
		KindBlockSize:   "BlockSize",
		KindFilter:      "Filter",
		KindProject:     "Project",
		KindAggregate:   "Aggregate",
		Kind(200):       "Unknown",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestWireSizeScalesWithPayload(t *testing.T) {
	small := &Request{Kind: KindPutBlock, BlockID: "b", Data: make([]byte, 10)}
	big := &Request{Kind: KindPutBlock, BlockID: "b", Data: make([]byte, 10000)}
	if big.WireSize() <= small.WireSize() {
		t.Fatal("request wire size must scale with the payload")
	}
	if diff := big.WireSize() - small.WireSize(); diff != 9990 {
		t.Fatalf("payload delta must be exact, got %d", diff)
	}
	r1 := &Response{Data: make([]byte, 5)}
	r2 := &Response{Data: make([]byte, 500)}
	if r2.WireSize()-r1.WireSize() != 495 {
		t.Fatal("response wire size must scale with the payload")
	}
}

func TestWireSizeCountsLiteralStrings(t *testing.T) {
	a := &Request{Kind: KindFilter, Leaves: []FilterLeaf{{Value: sql.StringLit("x")}}}
	b := &Request{Kind: KindFilter, Leaves: []FilterLeaf{{Value: sql.StringLit("a much longer literal value")}}}
	if b.WireSize() <= a.WireSize() {
		t.Fatal("string literals must count toward wire size")
	}
}

func TestCostAdd(t *testing.T) {
	c := Cost{DiskBytes: 10, ProcBytes: 20}
	c.Add(Cost{DiskBytes: 5, ProcBytes: 7})
	if c.DiskBytes != 15 || c.ProcBytes != 27 {
		t.Fatalf("Cost.Add wrong: %+v", c)
	}
}

// TestValidateBatch pins what a batch may carry: the data-plane reads and the
// one idempotent, best-effort mutation, DeleteBlock. The two-phase write's
// calls, the inventory and nested batches keep their own frames. A Filter's
// leaves count toward MaxBatchOps, one op each.
func TestValidateBatch(t *testing.T) {
	batch := func(kinds ...Kind) *Request {
		r := &Request{Kind: KindBatch}
		for _, k := range kinds {
			r.Subs = append(r.Subs, Request{Kind: k})
		}
		return r
	}
	overCap := make([]Kind, MaxBatchOps+1)
	for i := range overCap {
		overCap[i] = KindGetBlock
	}
	// leaves makes r's first sub a Filter of n leaves.
	leaves := func(r *Request, n int) *Request {
		r.Subs[0] = Request{Kind: KindFilter, Leaves: make([]FilterLeaf, n)}
		return r
	}
	cases := []struct {
		name string
		req  *Request
		ok   bool
	}{
		{"reads", batch(KindGetBlock, KindFilter, KindProject, KindGroupAgg, KindTopK), true},
		{"retired Aggregate", batch(KindAggregate), false},
		{"deletes", batch(KindDeleteBlock, KindDeleteBlock), true},
		{"deletes beside reads", batch(KindGetBlock, KindDeleteBlock), true},
		{"PutBlock", batch(KindDeleteBlock, KindPutBlock), false},
		{"PrepareBlock", batch(KindPrepareBlock), false},
		{"CommitObject", batch(KindCommitObject), false},
		{"ListBlocks", batch(KindListBlocks), false},
		{"BlockSize", batch(KindBlockSize), false},
		{"Ping", batch(KindPing), false},
		{"nested batch", batch(KindBatch), false},
		{"empty", batch(), false},
		{"not a batch", &Request{Kind: KindDeleteBlock}, false},
		{"at the cap", batch(overCap[1:]...), true},
		{"over the cap", batch(overCap...), false},
		{"leaves at the cap", leaves(batch(overCap[2:]...), 2), true},
		{"leaves over the cap", leaves(batch(overCap[1:]...), 2), false},
	}
	for _, tc := range cases {
		if msg := ValidateBatch(tc.req); (msg == "") != tc.ok {
			t.Errorf("%s: ValidateBatch = %q, want ok=%v", tc.name, msg, tc.ok)
		}
	}
}

// TestValidatePrepare pins a multi-block prepare frame's shape: bare
// PrepareBlocks as sub-blocks, at most MaxBatchOps, each id once, and no
// block on the frame itself.
func TestValidatePrepare(t *testing.T) {
	block := func(id string) Request { return Request{Kind: KindPrepareBlock, BlockID: id, Data: []byte(id)} }
	frame := func(subs ...Request) *Request { return &Request{Kind: KindPrepareBlock, Subs: subs} }
	overCap := make([]Request, MaxBatchOps+1)
	for i := range overCap {
		overCap[i] = block(string(rune('a'+i%26)) + string(rune(i)))
	}
	own := frame(block("a"), block("b"))
	own.BlockID = "c"
	cases := []struct {
		name string
		req  *Request
		ok   bool
	}{
		{"blocks", frame(block("a"), block("b")), true},
		{"one block", frame(block("a")), true},
		{"at the cap", frame(overCap[1:]...), true},
		{"over the cap", frame(overCap...), false},
		{"duplicate id", frame(block("a"), block("b"), block("a")), false},
		{"no sub-blocks", frame(), false},
		{"a block of its own", own, false},
		{"a PutBlock", frame(block("a"), Request{Kind: KindPutBlock, BlockID: "b"}), false},
		{"a nested frame", frame(*frame(block("a"))), false},
		{"a batch", &Request{Kind: KindBatch, Subs: []Request{block("a")}}, false},
	}
	for _, tc := range cases {
		if msg := ValidatePrepare(tc.req); (msg == "") != tc.ok {
			t.Errorf("%s: ValidatePrepare = %q, want ok=%v", tc.name, msg, tc.ok)
		}
	}
}
