package rpc

import (
	"reflect"
	"testing"

	"github.com/fusionstore/fusion/internal/sql"
)

// FuzzFrame throws arbitrary bytes at both decoders. The invariants: never
// panic; never build more elements than the frame has bytes (every element
// of every slice costs at least one, so a declared count the frame cannot
// back must fail before anything is allocated for it); and anything that
// decodes re-encodes to a frame that decodes to the same message and
// re-encodes to the same bytes. Seeds cover valid frames of both kinds,
// truncations, and the hostile counts and lengths of
// TestDecodeAllocationBounded.
func FuzzFrame(f *testing.F) {
	goodReq, err := encodeRequest(sampleBatchRequest())
	if err != nil {
		f.Fatal(err)
	}
	goodResp, err := encodeResponse(sampleBatchResponse())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(goodReq)
	f.Add(goodResp)
	f.Add(goodReq[:len(goodReq)/2])
	f.Add(goodResp[:len(goodResp)/2])
	f.Add([]byte{})
	f.Add([]byte{0x00})
	hostileReq, hostileResp := hostileFrames(f)
	for _, frame := range append(hostileReq, hostileResp...) {
		f.Add(frame)
	}
	// An ungrouped aggregate: a GroupAgg naming no key chunk, its one-group
	// reply keyed by nothing, and a request of the retired Aggregate kind.
	ungrouped := &Request{Kind: KindGroupAgg, Bitmap: []byte{1},
		ValChunks: []ChunkRef{{BlockID: "obj/e1/s0/b0", Offset: 8}, {}},
		AggKinds:  []sql.AggKind{sql.AggSum, sql.AggCount}}
	retired := &Request{Kind: KindAggregate, Chunk: ChunkRef{BlockID: "obj/e1/s0/b0"}, Bitmap: []byte{1}}
	reply := &Response{Matches: 3, Groups: []sql.GroupPartial{{Rows: 3, Aggs: []sql.AggState{
		{Kind: sql.AggSum, Count: 3, Sum: 7.5}, {Kind: sql.AggCount, Count: 3}}}}}
	for _, seed := range []func() ([]byte, error){
		func() ([]byte, error) { return encodeRequest(ungrouped) },
		func() ([]byte, error) { return encodeResponse(reply) },
		func() ([]byte, error) { return encodeRequest(retired) },
	} {
		frame, err := seed()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}

	f.Fuzz(func(t *testing.T, frame []byte) {
		req := &Request{}
		if err := DecodeRequest(frame, req); err == nil {
			if n := elements(reflect.ValueOf(req)); n > len(frame) {
				t.Fatalf("request of %d elements decoded from %d bytes", n, len(frame))
			}
			re, err := encodeRequest(req)
			if err != nil {
				t.Fatalf("re-encode of decoded request failed: %v", err)
			}
			req2 := &Request{}
			if err := DecodeRequest(re, req2); err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if re2, _ := encodeRequest(req2); string(re) != string(re2) {
				t.Fatal("request round trip not stable")
			}
		}
		resp := &Response{}
		if err := DecodeResponse(frame, resp); err == nil {
			if n := elements(reflect.ValueOf(resp)); n > len(frame) {
				t.Fatalf("response of %d elements decoded from %d bytes", n, len(frame))
			}
			re, err := encodeResponse(resp)
			if err != nil {
				t.Fatalf("re-encode of decoded response failed: %v", err)
			}
			resp2 := &Response{}
			if err := DecodeResponse(re, resp2); err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if re2, _ := encodeResponse(resp2); string(re) != string(re2) {
				t.Fatal("response round trip not stable")
			}
		}
	})
}

// elements counts the slice elements (bytes included) and pointed-to values
// reachable from v: what a decode allocated.
func elements(v reflect.Value) int {
	n := 0
	switch v.Kind() {
	case reflect.Ptr:
		if !v.IsNil() {
			n = 1 + elements(v.Elem())
		}
	case reflect.String:
		n = v.Len()
	case reflect.Slice:
		n = v.Len()
		if v.Type().Elem().Kind() != reflect.Uint8 {
			for i := 0; i < v.Len(); i++ {
				n += elements(v.Index(i))
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n += elements(v.Field(i))
		}
	}
	return n
}
