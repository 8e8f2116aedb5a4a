package cluster

import (
	"bytes"
	"testing"

	"github.com/fusionstore/fusion/internal/bitmap"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/sql"
)

// FuzzNodeRequest decodes arbitrary bytes as a request frame and hands what
// decodes to a node whose block store holds a real row group — the bytes a
// node parses off the wire, chunks shipped in a GroupAgg's Data among them.
// The node must answer with an error or a well-formed reply (one that encodes
// and decodes again, and for a batch one sub-response per sub-request), and
// never panic. Each input gets a fresh node, so no input's writes reach the
// next. The seeds: a genuine GroupAgg whose key chunk is shipped, then the
// same with Data truncated, the shipped Offset beyond Data, one shipped byte
// flipped (a CRC mismatch), the zero reference as the key, no key (an
// ungrouped aggregate), and no key with only a COUNT (a fold that reads no
// column); and all seven in one batch.
func FuzzNodeRequest(f *testing.F) {
	fx := newRowGroupFixture(f, 300)
	file, err := fx.store.MemStore.Get("blk", 0, 0)
	if err != nil {
		f.Fatal(err)
	}
	flag := fx.refs["flag"]
	flag.BlockID, flag.Offset = "", 0
	genuine := rpc.Request{
		Kind: rpc.KindGroupAgg, Bitmap: bitmap.NewFull(fx.rows).Marshal(), MaxGroups: 100,
		Data:      fx.shipped(f, "flag"),
		KeyChunks: []rpc.ChunkRef{flag},
		ValChunks: []rpc.ChunkRef{fx.refs["price"], {}},
		AggKinds:  []sql.AggKind{sql.AggSum, sql.AggCount},
	}
	if resp := fx.node.Handle(&genuine); resp.Err != "" || len(resp.Groups) != 3 {
		f.Fatalf("the genuine GroupAgg is answered %q with %d groups, want 3", resp.Err, len(resp.Groups))
	}
	truncated, beyond, flipped, zeroKey, keyless, noColumn := genuine, genuine, genuine, genuine, genuine, genuine
	truncated.Data = genuine.Data[:len(genuine.Data)/2]
	beyond.KeyChunks = []rpc.ChunkRef{flag}
	beyond.KeyChunks[0].Offset = uint64(len(genuine.Data)) + 1
	flipped.Data = bytes.Clone(genuine.Data)
	flipped.Data[len(flipped.Data)/2] ^= 0x10
	zeroKey.KeyChunks = []rpc.ChunkRef{{}}
	keyless.KeyChunks, keyless.Data = nil, nil
	noColumn.KeyChunks, noColumn.Data = nil, nil
	noColumn.ValChunks, noColumn.AggKinds = []rpc.ChunkRef{{}}, []sql.AggKind{sql.AggCount}
	if resp := fx.node.Handle(&keyless); resp.Err != "" || len(resp.Groups) != 1 {
		f.Fatalf("the keyless GroupAgg is answered %q with %d groups, want 1", resp.Err, len(resp.Groups))
	}
	seeds := []rpc.Request{genuine, truncated, beyond, flipped, zeroKey, keyless, noColumn}
	for _, r := range append(seeds, rpc.Request{Kind: rpc.KindBatch, Subs: seeds}) {
		_, segs, err := rpc.AppendRequest(nil, nil, &r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.Join(segs, nil))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		req := &rpc.Request{}
		if rpc.DecodeRequest(b, req) != nil {
			return
		}
		bs := NewMemStore()
		if err := bs.Put("blk", file); err != nil {
			t.Fatal(err)
		}
		resp := NewNode(0, bs).Handle(req)
		if req.Kind == rpc.KindBatch && resp.Err == "" && len(resp.Subs) != len(req.Subs) {
			t.Fatalf("%d sub-responses to %d sub-requests", len(resp.Subs), len(req.Subs))
		}
		_, segs, err := rpc.AppendResponse(nil, nil, resp)
		if err != nil {
			t.Fatalf("reply does not encode: %v", err)
		}
		if err := rpc.DecodeResponse(bytes.Join(segs, nil), &rpc.Response{}); err != nil {
			t.Fatalf("reply does not decode: %v", err)
		}
	})
}
