package rpc

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/fusionstore/fusion/internal/sql"
)

// FuzzFrame throws arbitrary bytes at every decoder. The invariants: never
// panic; never build more elements than the frame has bytes (every element
// of every slice costs at least one, so a declared count the frame cannot
// back must fail before anything is allocated for it); and anything that
// decodes re-encodes to a frame that decodes to the same message and
// re-encodes to the same bytes. The streaming leg reads frame[:head] as a
// header and the rest as its payload region, answering landingRequest: what
// it reads is what the whole frame decodes to, except that a GetBlock
// payload that fills its windows exactly is in them instead of in Data, and
// the windows of every other reply are left untouched. Seeds cover valid
// frames of both kinds, truncations, the hostile counts and lengths of
// TestDecodeAllocationBounded, and for the payload region: one shorter or
// longer than its header declares, a short length whose bytes sit in the
// region, and a batch reply mixing landed, error and wrong-length
// sub-responses.
func FuzzFrame(f *testing.F) {
	add := func(frame []byte) { f.Add(frame, uint16(min(len(frame), 1<<16-1))) }
	goodReq, err := encodeRequest(sampleBatchRequest())
	if err != nil {
		f.Fatal(err)
	}
	goodResp, err := encodeResponse(sampleBatchResponse())
	if err != nil {
		f.Fatal(err)
	}
	add(goodReq)
	add(goodResp)
	add(goodReq[:len(goodReq)/2])
	add(goodResp[:len(goodResp)/2])
	add([]byte{})
	add([]byte{0x00})
	hostileReq, hostileResp := hostileFrames(f)
	for _, frame := range append(hostileReq, hostileResp...) {
		add(frame)
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
		add(frame)
	}
	// The payload region: the mixed batch reply whole, its region a byte
	// short and a byte long, and a short payload moved out of the header
	// into the region.
	_, segs, err := AppendResponse(nil, nil, mixedReply())
	if err != nil {
		f.Fatal(err)
	}
	mixed, head := bytes.Join(segs, nil), uint16(len(segs[0]))
	f.Add(mixed, head)
	f.Add(mixed[:len(mixed)-1], head)
	f.Add(append(mixed[:len(mixed):len(mixed)], 0), head)
	small := mixedReply()
	small.Subs[0].Data = small.Subs[0].Data[:100]
	_, segs, err = AppendResponse(nil, nil, small)
	if err != nil {
		f.Fatal(err)
	}
	at := bytes.Index(segs[0], small.Subs[0].Data)
	moved := append(append(append([]byte(nil), segs[0][:at]...), segs[0][at+100:]...), small.Subs[0].Data...)
	f.Add(append(moved, bytes.Join(segs[1:], nil)...), uint16(len(segs[0])-100))

	f.Fuzz(func(t *testing.T, frame []byte, head uint16) {
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

		h := min(int(head), len(frame))
		lreq, windows := landingRequest()
		got := &Response{}
		if err := ReadResponse(bytes.NewReader(frame[h:]), append([]byte(nil), frame[:h]...), len(frame)-h, 1<<10, lreq, got); err != nil {
			return
		}
		whole := &Response{}
		if err := DecodeResponse(frame, whole); err != nil {
			t.Fatalf("read as a header and a region, but the whole frame does not decode: %v", err)
		}
		if len(got.Subs) != len(whole.Subs) {
			t.Fatalf("read %d sub-responses, the whole frame decodes to %d", len(got.Subs), len(whole.Subs))
		}
		landed := make([]bool, len(windows))
		for i := range got.Subs {
			g := &got.Subs[i]
			if g.Landed() == nil {
				continue
			}
			if i >= len(lreq.Subs) || g.Err != "" || g.Data != nil {
				t.Fatalf("sub %d landed without a GetBlock naming windows, or beside an error or Data", i)
			}
			var in []byte
			for _, lw := range g.Landed() {
				in = append(in, lw...)
				for j, w := range windows {
					if &lw[0] == &w[0] {
						landed[j] = true
					}
				}
			}
			if !bytes.Equal(in, whole.Subs[i].Data) {
				t.Fatalf("sub %d: landed bytes differ from the frame's payload", i)
			}
			g.Data, g.landed = whole.Subs[i].Data, nil
		}
		for j, w := range windows {
			if !landed[j] && bytes.Count(w, []byte{0xEE}) != len(w) {
				t.Fatalf("window %d was written but nothing landed in it", j)
			}
		}
		got.frame, got.tail = nil, nil
		if !reflect.DeepEqual(got, whole) {
			t.Fatal("the header-and-region read differs from the whole frame's decode")
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
