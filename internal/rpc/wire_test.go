package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"github.com/fusionstore/fusion/internal/bufpool"
	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/sql"
)

// encodeRequest returns r's contiguous encoding: the segments joined as the
// socket would see them.
func encodeRequest(r *Request) ([]byte, error) {
	_, segs, err := AppendRequest(nil, nil, r)
	return bytes.Join(segs, nil), err
}

func encodeResponse(r *Response) ([]byte, error) {
	_, segs, err := AppendResponse(nil, nil, r)
	return bytes.Join(segs, nil), err
}

// requireRequestRoundTrip encodes req, decodes the bytes and requires the
// result to equal req; it returns the decoded copy.
func requireRequestRoundTrip(t *testing.T, req *Request) *Request {
	t.Helper()
	enc, err := encodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	got := &Request{}
	if err := DecodeRequest(enc, got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, got) {
		t.Fatalf("request round trip:\n got %+v\nwant %+v", got, req)
	}
	return got
}

func requireResponseRoundTrip(t *testing.T, resp *Response) *Response {
	t.Helper()
	enc, err := encodeResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	got := &Response{}
	if err := DecodeResponse(enc, got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp, got) {
		t.Fatalf("response round trip:\n got %+v\nwant %+v", got, resp)
	}
	return got
}

// filler sets every field reachable from a value to a distinct non-zero
// value. A field kind it does not know fails the test, so a new field type
// in a wire struct cannot pass through unfilled.
type filler struct {
	t        *testing.T
	n        int
	bytesLen int
}

func (f *filler) fill(v reflect.Value, sub bool) {
	f.n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int32, reflect.Int64:
		v.SetInt(int64(f.n))
	case reflect.Uint8, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(f.n%250 + 1))
	case reflect.Float64:
		v.SetFloat(float64(f.n) + 0.25)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", f.n))
	case reflect.Ptr:
		v.Set(reflect.New(v.Type().Elem()))
		f.fill(v.Elem(), sub)
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			v.SetBytes(bytes.Repeat([]byte{byte(f.n)}, f.bytesLen+f.n%7))
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			f.fill(v.Index(i), true)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if sub && v.Type().Field(i).Name == "Subs" {
				continue // one level deep only
			}
			// Unexported means "not on the wire": state a message carries on
			// one side of the socket only (Response.frame).
			if !v.Type().Field(i).IsExported() {
				continue
			}
			f.fill(v.Field(i), sub)
		}
	default:
		f.t.Fatalf("filler: unsupported kind %s (%s): teach the test and the codec about it", v.Kind(), v.Type())
	}
}

// requireNoZero fails on any zero-valued field, so the round trip below is
// known to have exercised all of them.
func requireNoZero(t *testing.T, v reflect.Value, path string, sub bool) {
	t.Helper()
	switch v.Kind() {
	case reflect.Ptr:
		if v.IsNil() {
			t.Fatalf("%s is nil", path)
		}
		requireNoZero(t, v.Elem(), path, sub)
	case reflect.Slice:
		if v.Len() == 0 {
			t.Fatalf("%s is empty", path)
		}
		if v.Type().Elem().Kind() != reflect.Uint8 {
			for i := 0; i < v.Len(); i++ {
				requireNoZero(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), true)
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			if sub && name == "Subs" || !v.Type().Field(i).IsExported() {
				continue // unexported: not on the wire, left zero by the filler
			}
			requireNoZero(t, v.Field(i), path+"."+name, sub)
		}
	default:
		if v.IsZero() {
			t.Fatalf("%s is zero", path)
		}
	}
}

// TestWireEveryField fills every field of Request and Response, recursively,
// with distinct non-zero values and requires the codec to return them all:
// a field added to a wire struct and left out of wire.go fails here. It runs
// with payloads below and above inlineMax, so both the copied and the
// cut-out form of each payload field round-trip. The batch goes once more
// with its two subs sharing one selection, Bitmap and Leaves, which must come
// back shared — one slice each, not two copies — for a back-reference's size.
func TestWireEveryField(t *testing.T) {
	for _, bytesLen := range []int{3, inlineMax + 3} {
		req := &Request{}
		f := &filler{t: t, bytesLen: bytesLen}
		f.fill(reflect.ValueOf(req).Elem(), false)
		// The only legal carrier of Subs is a batch of batchable kinds; the
		// second is a Filter, whose two leaves are its two ops.
		req.Kind = KindBatch
		req.Subs[0].Kind = KindGetBlock
		req.Subs[1].Kind = KindFilter
		requireNoZero(t, reflect.ValueOf(req), "Request", false)
		requireRequestRoundTrip(t, req)
		copied, err := encodeRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		req.Subs[1].Bitmap, req.Subs[1].Leaves = req.Subs[0].Bitmap, req.Subs[0].Leaves
		got := requireRequestRoundTrip(t, req)
		if &got.Subs[1].Bitmap[0] != &got.Subs[0].Bitmap[0] || &got.Subs[1].Leaves[0] != &got.Subs[0].Leaves[0] {
			t.Fatalf("payloads of %d bytes: a shared selection decoded to two copies", bytesLen)
		}
		shared, err := encodeRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		if saved, sel := len(copied)-len(shared), len(req.Subs[0].Bitmap); saved < sel-2 {
			t.Fatalf("payloads of %d bytes: sharing a %d-byte selection saved %d bytes of the frame", bytesLen, sel, saved)
		}

		resp := &Response{}
		f.fill(reflect.ValueOf(resp).Elem(), false)
		requireNoZero(t, reflect.ValueOf(resp), "Response", false)
		requireResponseRoundTrip(t, resp)
	}
}

// TestWireZeroElements round-trips slices of zero-valued elements: the
// smallest encodings, which the decoder's count bounds must admit.
func TestWireZeroElements(t *testing.T) {
	req := &Request{
		Kind:      KindBatch,
		KeyChunks: make([]ChunkRef, 3),
		ValChunks: make([]ChunkRef, 1),
		AggKinds:  make([]sql.AggKind, 2),
		Subs:      []Request{{Kind: KindGetBlock}, {Kind: KindGetBlock}},
	}
	requireRequestRoundTrip(t, req)
	resp := &Response{
		Blocks:  make([]BlockInfo, 2),
		Groups:  []sql.GroupPartial{{}, {Key: make([]sql.Literal, 2), Aggs: make([]sql.AggState, 2)}},
		TopRows: make([]sql.TopRow, 3),
		Subs:    make([]Response, MaxBatchOps),
	}
	requireResponseRoundTrip(t, resp)
}

// TestWireSegments: a payload of inlineMax bytes or more goes out as the
// caller's own slice after the header, never copied into it, and dst's
// existing bytes lead the header.
func TestWireSegments(t *testing.T) {
	big := bytes.Repeat([]byte{7}, inlineMax)
	small := []byte{1, 2, 3}
	head, segs, err := AppendRequest([]byte("pre"), nil, &Request{Kind: KindPrepareBlock, Data: big, Bitmap: small})
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 || &segs[1][0] != &big[0] || len(segs[1]) != len(big) {
		t.Fatalf("want [header, payload], got %d segments", len(segs))
	}
	if !bytes.HasPrefix(segs[0], []byte("pre")) || &segs[0][0] != &head[0] || len(segs[0]) != len(head) {
		t.Fatal("the first segment must be the whole header buffer, starting at dst[0]")
	}
	if len(head) >= inlineMax {
		t.Fatalf("header buffer holds %d bytes: the payload was copied", len(head))
	}
	_, segs, err = AppendResponse(nil, nil, &Response{Subs: []Response{{Data: big}, {Data: small}, {Data: big}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 3 || &segs[1][0] != &big[0] || &segs[2][0] != &big[0] {
		t.Fatalf("want the header and two sub-payloads in 3 segments, got %d", len(segs))
	}
}

// TestWireDecodeAliases: decoded payloads are capacity-clipped views of the
// frame, not copies.
func TestWireDecodeAliases(t *testing.T) {
	enc, err := encodeResponse(&Response{Subs: []Response{{Data: []byte("abc")}, {Data: []byte("defg")}}})
	if err != nil {
		t.Fatal(err)
	}
	got := &Response{}
	if err := DecodeResponse(enc, got); err != nil {
		t.Fatal(err)
	}
	d0 := got.Subs[0].Data
	if cap(d0) != len(d0) {
		t.Fatalf("payload cap %d beyond its len %d: an append would overwrite the frame", cap(d0), len(d0))
	}
	i := bytes.Index(enc, []byte("abc"))
	enc[i] = 'X'
	if string(d0) != "Xbc" {
		t.Fatalf("payload %q does not alias the frame", d0)
	}
}

func sampleBatchRequest() *Request {
	return &Request{
		Kind: KindBatch,
		Subs: []Request{
			{Kind: KindGetBlock, BlockID: "b1", Offset: 8, Length: 32, CallerVerifies: true},
			{Kind: KindFilter, Chunk: ChunkRef{BlockID: "b2", Offset: 64}},
			{Kind: KindProject, Bitmap: []byte{1, 2, 3}},
		},
	}
}

func sampleBatchResponse() *Response {
	return &Response{
		Cost: Cost{DiskBytes: 96, ProcBytes: 128},
		Subs: []Response{
			{Data: []byte("abc"), Crc: 7, Cost: Cost{DiskBytes: 96}},
			{Err: "no such block"},
			{Matches: 41, Cost: Cost{ProcBytes: 128}},
		},
	}
}

// TestBatchRoundTrip: sub-messages come back index-aligned, a failed sub-op
// carries its own Err and leaves its siblings and the outer Err alone.
func TestBatchRoundTrip(t *testing.T) {
	requireRequestRoundTrip(t, sampleBatchRequest())
	got := requireResponseRoundTrip(t, sampleBatchResponse())
	if got.Err != "" || got.Subs[1].Err != "no such block" || string(got.Subs[0].Data) != "abc" {
		t.Fatalf("per-sub error isolation lost: %+v", got)
	}
}

// TestBatchCarriesDeadline: the envelope's relative deadline budget must
// survive the codec — it is what lets a remote node abandon a scan at a
// sub-op boundary — and per-sub budgets must round-trip too.
func TestBatchCarriesDeadline(t *testing.T) {
	req := sampleBatchRequest()
	req.DeadlineMicros = 250_000
	req.Subs[1].DeadlineMicros = 10_000
	got := requireRequestRoundTrip(t, req)
	if got.DeadlineMicros != 250_000 {
		t.Fatalf("envelope DeadlineMicros = %d, want 250000", got.DeadlineMicros)
	}
	if got.Subs[1].DeadlineMicros != 10_000 {
		t.Fatalf("sub DeadlineMicros = %d, want 10000", got.Subs[1].DeadlineMicros)
	}
}

func TestEncodeRejectsMalformed(t *testing.T) {
	requests := map[string]*Request{
		"empty batch":       {Kind: KindBatch},
		"nested batch":      {Kind: KindBatch, Subs: []Request{{Kind: KindBatch}}},
		"mutating batch":    {Kind: KindBatch, Subs: []Request{{Kind: KindPutBlock}}},
		"oversized batch":   {Kind: KindBatch, Subs: make([]Request, MaxBatchOps+1)},
		"subs on non-batch": {Kind: KindGetBlock, Subs: []Request{{Kind: KindGetBlock}}},
		"subs on a sub":     {Kind: KindBatch, Subs: []Request{{Kind: KindGetBlock, Subs: []Request{{Kind: KindGetBlock}}}}},
	}
	for name, r := range requests {
		if _, err := encodeRequest(r); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
	responses := map[string]*Response{
		"oversized batch": {Subs: make([]Response, MaxBatchOps+1)},
		"subs on a sub":   {Subs: []Response{{Subs: []Response{{}}}}},
	}
	for name, r := range responses {
		if _, err := encodeResponse(r); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
}

// withSubs returns a frame that is r's encoding with its trailing zero Subs
// count replaced by count followed by tail.
func withSubs(t testing.TB, enc []byte, count uint64, tail ...byte) []byte {
	t.Helper()
	if enc[len(enc)-1] != 0 {
		t.Fatal("encoding does not end in a zero Subs count")
	}
	return append(binary.AppendUvarint(enc[:len(enc)-1:len(enc)-1], count), tail...)
}

// rawBatch encodes a batch of subs without checking its shape, sub i's
// Bitmap written as a back-reference iff i is in refs — whatever the previous
// sub carries — so it writes the frames the decoder must refuse. The batch
// itself carries a selection, which its first sub may not refer back to.
func rawBatch(subs []Request, refs ...int) []byte {
	var e encoder
	_ = e.request(&Request{Kind: KindBatch, Bitmap: []byte{0x0F, 0x01}}, false, false)
	e.b = binary.AppendUvarint(e.b[:len(e.b)-1], uint64(len(subs))) // over the zero Subs count
	for i := range subs {
		_ = e.request(&subs[i], false, slices.Contains(refs, i))
	}
	return append(e.b, bytes.Join(e.region, nil)...)
}

// badBackRefs are the request frames whose back-reference refers to nothing
// or stands beside a selection of its own: one on the first sub, of a Bitmap
// and of Leaves, one after a sub with no selection, one on a top-level
// request, one on a sub's Data, and one on a sub with Leaves of its own.
func badBackRefs() map[string][]byte {
	project := Request{Kind: KindProject, Bitmap: []byte{0x0F, 0x01}}
	fused := fusedSubs()[1]
	var top, get encoder
	_ = top.request(&project, true, true)
	_ = get.request(&Request{Kind: KindGetBlock}, false, false)
	onData := rawBatch([]Request{project, {Kind: KindGetBlock}})
	onData[len(onData)-len(get.b)+3] = backRef // the last sub's Data tag, behind its kind, deadline and BlockID
	// The last sub's Bitmap tag, behind its leaves: eight zero fields follow.
	besideLeaves := rawBatch([]Request{fused, fused})
	besideLeaves[len(besideLeaves)-9] = backRef
	return map[string][]byte{
		"back-reference on the first sub":           rawBatch([]Request{project, project}, 0),
		"back-reference to leaves on the first sub": rawBatch([]Request{fused, fused}, 0),
		"back-reference after no selection":         rawBatch([]Request{{Kind: KindProject}, project}, 1),
		"back-reference on a top-level":             top.b,
		"back-reference on a sub's Data":            onData,
		"back-reference beside leaves of its own":   besideLeaves,
	}
}

// fusedSubs is a row group's sub-ops whose selection is a conjunction: its
// Filter, a Project and a keyless GroupAgg carrying the Filter's leaves — one
// slice, which the wire carries once.
func fusedSubs() []Request {
	leaves := []FilterLeaf{
		{Chunk: ChunkRef{BlockID: "obj/e1/s0/b0", Offset: 8, Type: 1, Meta: lpq.ChunkMeta{Size: 40, NumValues: 300}}, Op: sql.OpLt, Value: sql.IntLit(9)},
		{Chunk: ChunkRef{BlockID: "obj/e1/s0/b0", Offset: 48, Type: 1, Meta: lpq.ChunkMeta{Size: 40, NumValues: 300}}, Op: sql.OpGe, Value: sql.IntLit(2)},
	}
	val := ChunkRef{BlockID: "obj/e1/s0/b0", Offset: 88, Type: 1, Meta: lpq.ChunkMeta{Size: 40, NumValues: 300}}
	return []Request{
		{Kind: KindFilter, Leaves: leaves, RG: 3},
		{Kind: KindProject, Chunk: val, Leaves: leaves, RG: 3},
		{Kind: KindGroupAgg, Leaves: leaves, ValChunks: []ChunkRef{val}, AggKinds: []sql.AggKind{sql.AggSum}, MaxGroups: 1, RG: 3},
	}
}

// TestWireSharesLeaves: a frame's sub-ops that carry their Filter's leaves
// send them once — each later one is a back-reference of a byte — and decode
// to one slice of leaves, the first sub-op's.
func TestWireSharesLeaves(t *testing.T) {
	subs := fusedSubs()
	shared, err := encodeRequest(&Request{Kind: KindBatch, Subs: subs})
	if err != nil {
		t.Fatal(err)
	}
	copied := fusedSubs()
	for i := range copied {
		copied[i].Leaves = slices.Clone(copied[i].Leaves)
	}
	apart, err := encodeRequest(&Request{Kind: KindBatch, Subs: copied})
	if err != nil {
		t.Fatal(err)
	}
	var one encoder
	for i := range subs[0].Leaves {
		one.filterLeaf(&subs[0].Leaves[i])
	}
	if saved := len(apart) - len(shared); saved != 2*len(one.b) {
		t.Fatalf("sharing the leaves saved %d bytes of the frame, want twice the leaves' %d", saved, len(one.b))
	}
	got := &Request{}
	if err := DecodeRequest(shared, got); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3; i++ {
		if !SameSlice(got.Subs[i].Leaves, got.Subs[0].Leaves) || got.Subs[i].Bitmap != nil {
			t.Fatalf("sub %d decoded to leaves of its own (%d) or a bitmap (%d B)", i, len(got.Subs[i].Leaves), len(got.Subs[i].Bitmap))
		}
	}
	if !reflect.DeepEqual(got.Subs[2].Leaves, subs[0].Leaves) || got.Subs[2].Kind != KindGroupAgg {
		t.Fatal("the shared leaves decoded to others")
	}
}

// TestDecodeRejects drives the decoder's bounds and shape checks with
// hand-built malformed frames, each against both decoders.
func TestDecodeRejects(t *testing.T) {
	goodReq, err := encodeRequest(sampleBatchRequest())
	if err != nil {
		t.Fatal(err)
	}
	goodResp, err := encodeResponse(sampleBatchResponse())
	if err != nil {
		t.Fatal(err)
	}
	bareReq, _ := encodeRequest(&Request{Kind: KindGetBlock})
	bareBatch := append([]byte{byte(KindBatch)}, bareReq[1:]...)
	bareResp, _ := encodeResponse(&Response{})

	both := map[string][]byte{
		"empty":           {},
		"overlong varint": bytes.Repeat([]byte{0xFF}, 11),
		// A string length far beyond the frame.
		"huge length": binary.AppendUvarint([]byte{byte(KindGetBlock), 0}, 1<<40),
	}
	requests := map[string][]byte{
		"truncated": goodReq[:len(goodReq)-3],
		"trailing":  append(append([]byte(nil), goodReq...), 0xFF),
		// A sub count the remaining bytes cannot back.
		"count overrun": withSubs(t, bareBatch, 500, 0x01),
		// A batch with no sub-requests, and Subs where none may be.
		"empty batch":       bareBatch,
		"subs on non-batch": withSubs(t, bareReq, 1, bareReq...),
		"nested batch":      withSubs(t, bareBatch, 1, withSubs(t, bareBatch, 1, bareReq...)...),
		"mutating batch":    withSubs(t, bareBatch, 1, append([]byte{byte(KindPutBlock)}, bareReq[1:]...)...),
	}
	// A response carries no selection to refer back to.
	dataRef := append([]byte(nil), bareResp...)
	dataRef[1] = backRef // the Data tag, behind the empty Err
	for name, frame := range badBackRefs() {
		if err := DecodeRequest(frame, &Request{}); !errors.Is(err, errBackRef) {
			t.Errorf("request, %s: decode returned %v, want errBackRef", name, err)
		}
	}
	if err := DecodeResponse(dataRef, &Response{}); !errors.Is(err, errBackRef) {
		t.Errorf("response, back-reference on Data: decode returned %v, want errBackRef", err)
	}
	responses := map[string][]byte{
		"truncated":     goodResp[:len(goodResp)-3],
		"trailing":      append(append([]byte(nil), goodResp...), 0xFF),
		"count overrun": withSubs(t, bareResp, 1<<40, 0x01),
		"subs on a sub": withSubs(t, bareResp, 1, withSubs(t, bareResp, 1, bareResp...)...),
		// More than MaxBatchOps sub-responses, all of them present.
		"oversized batch": withSubs(t, bareResp, MaxBatchOps+1, bytes.Repeat(bareResp, MaxBatchOps+1)...),
	}
	for name, frame := range both {
		requests[name], responses[name] = frame, frame
	}
	for name, frame := range requests {
		if err := DecodeRequest(frame, &Request{}); err == nil {
			t.Errorf("request, %s: decode succeeded", name)
		}
	}
	for name, frame := range responses {
		if err := DecodeResponse(frame, &Response{}); err == nil {
			t.Errorf("response, %s: decode succeeded", name)
		}
	}
}

// hostileFrames declare far more than they carry: each is a minimal message
// with 2^20, 2^40 or 2^63+1 spliced over one of its bytes in turn, so every
// count and every length gets each value, plus the same as a Subs count.
func hostileFrames(t testing.TB) (requests, responses [][]byte) {
	bareReq, _ := encodeRequest(&Request{Kind: KindGroupAgg})
	bareBatch := append([]byte{byte(KindBatch)}, bareReq[1:]...)
	bareResp, _ := encodeResponse(&Response{})
	splice := func(bare []byte, i int, n uint64) []byte {
		return append(binary.AppendUvarint(append([]byte(nil), bare[:i]...), n), bare[i+1:]...)
	}
	for _, n := range []uint64{1 << 20, 1 << 40, 1<<63 + 1} {
		for i := 1; i < len(bareReq); i++ {
			requests = append(requests, splice(bareReq, i, n))
		}
		requests = append(requests, splice(bareBatch, len(bareBatch)-1, n))
		for i := range bareResp {
			responses = append(responses, splice(bareResp, i, n))
		}
	}
	return requests, responses
}

// TestDecodeAllocationBounded: no declared count or length makes a decode
// allocate beyond a small multiple of the bytes it was handed.
func TestDecodeAllocationBounded(t *testing.T) {
	requests, responses := hostileFrames(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, f := range requests {
		_ = DecodeRequest(f, &Request{})
	}
	for _, f := range responses {
		_ = DecodeResponse(f, &Response{})
	}
	runtime.ReadMemStats(&after)
	frames := uint64(len(requests) + len(responses))
	if perFrame := (after.TotalAlloc - before.TotalAlloc) / frames; perFrame > 16<<10 {
		t.Fatalf("decoding %d hostile frames of under 100 bytes allocated %d bytes each", frames, perFrame)
	}
}

// TestFrameWithinWireSize anchors the traffic figure: for the kinds that
// carry the bytes, the real encoding (plus tcpnet's 8-byte length prefix) is
// no longer than WireSize() + wireSlack, so net_bytes_per_op — a sum of
// WireSize() — is an upper bound on the bytes sent, not an estimate.
func TestFrameWithinWireSize(t *testing.T) {
	const wireSlack = 16
	prepare := &Request{Kind: KindPrepareBlock, BlockID: "lineitem/e12/s3/b4", Object: "lineitem",
		Epoch: 12, Crc: 0xDEADBEEF, Data: make([]byte, 128<<10), DeadlineMicros: 30_000_000}
	getReply := &Response{Data: make([]byte, 1<<20), Crc: 0xDEADBEEF, Cost: Cost{DiskBytes: 1 << 20}}
	batchReply := &Response{Cost: Cost{DiskBytes: 40 << 20}}
	for i := 0; i < 40; i++ {
		batchReply.Subs = append(batchReply.Subs, Response{Data: make([]byte, 300<<10+i), Crc: 0xDEADBEEF, Cost: Cost{DiskBytes: 1 << 20}})
	}
	projectReply := &Response{Data: make([]byte, 480_000), Matches: 60_000, Cost: Cost{DiskBytes: 1 << 19, ProcBytes: 1 << 20}}

	reqEnc, err := encodeRequest(prepare)
	if err != nil {
		t.Fatal(err)
	}
	if got, est := uint64(len(reqEnc)+8), prepare.WireSize(); got > est+wireSlack {
		t.Errorf("PrepareBlock: frame %d bytes > WireSize %d + %d", got, est, wireSlack)
	}
	for name, r := range map[string]*Response{"GetBlock reply": getReply, "batched GetBlock reply": batchReply, "Project reply": projectReply} {
		enc, err := encodeResponse(r)
		if err != nil {
			t.Fatal(err)
		}
		if got, est := uint64(len(enc)+8), r.WireSize(); got > est+wireSlack {
			t.Errorf("%s: frame %d bytes > WireSize %d + %d", name, got, est, wireSlack)
		}
	}
	// A row group's projections in one frame share its selection: WireSize
	// counts it once and each back-reference at its encoded size, as the
	// wire carries them, and so five copies fewer than unshared selections.
	for _, n := range []int{7500, 1000} {
		shared := projectFrame(make([]byte, n))
		enc, err := encodeRequest(shared)
		if err != nil {
			t.Fatal(err)
		}
		if got, est := uint64(len(enc)+8), shared.WireSize(); got > est+wireSlack {
			t.Errorf("Project frame sharing a %d-byte selection: frame %d bytes > WireSize %d + %d", n, got, est, wireSlack)
		}
		copied := projectFrame(make([]byte, n))
		for i := range copied.Subs {
			copied.Subs[i].Bitmap = make([]byte, n)
		}
		if saved := copied.WireSize() - shared.WireSize(); saved < 5*uint64(n-backRefSize) {
			t.Errorf("Project frame sharing a %d-byte selection: WireSize %d, only %d below unshared copies",
				n, shared.WireSize(), saved)
		}
	}
}

// projectFrame is a batch of six Projects over one row group's chunks, every
// one carrying sel.
func projectFrame(sel []byte) *Request {
	r := &Request{Kind: KindBatch, DeadlineMicros: 30_000_000}
	for i := range 6 {
		r.Subs = append(r.Subs, Request{Kind: KindProject, Bitmap: sel, Chunk: ChunkRef{
			BlockID: fmt.Sprintf("lineitem/e12/s3/b%d", i), Offset: uint64(i) << 16,
			Meta: lpq.ChunkMeta{Offset: uint64(i) << 20, Size: 60_000, RawSize: 480_000, NumValues: 60_000, CRC: 0xDEADBEEF}}})
	}
	return r
}

// readPooled reads r's encoding as a client does (ReadResponse): its header
// from a buffer rented from bufpool, its payload region off a reader.
func readPooled(t testing.TB, r *Response, req *Request) (*Response, []byte, error) {
	t.Helper()
	_, segs, err := AppendResponse(nil, nil, r)
	if err != nil {
		t.Fatal(err)
	}
	head := append(bufpool.Get(len(segs[0])), segs[0]...)
	region := bytes.Join(segs[1:], nil)
	got := &Response{}
	return got, head, ReadResponse(bytes.NewReader(region), head, len(region), 1<<20, req, got)
}

// TestResponseRelease: a response read off a connection gives its buffers
// back once — its header's and its payload region's, one Release for a batch
// reply and all its sub-responses, a second Release a no-op — and one decoded
// from plain bytes, or never decoded at all, has nothing to give back. A
// header that fails to decode stays the caller's.
func TestResponseRelease(t *testing.T) {
	puts := func() uint64 { _, n, _ := bufpool.Stats(); return n }
	msg := &Response{Subs: []Response{{Data: bytes.Repeat([]byte{1}, inlineMax+600)}, {Data: bytes.Repeat([]byte{2}, 600)}}}
	resp, _, err := readPooled(t, msg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer bufpool.SetPoison(bufpool.SetPoison(true))
	sub0, sub1 := resp.Subs[0].Data, resp.Subs[1].Data
	before := puts()
	resp.Release()
	if puts() != before+2 || !bufpool.Poisoned(sub0) || !bufpool.Poisoned(sub1) {
		t.Fatal("Release did not return the header and the region both sub-responses alias")
	}
	resp.Release()
	if puts() != before+2 {
		t.Fatal("a second Release returned the buffers again")
	}

	enc, err := encodeResponse(msg)
	if err != nil {
		t.Fatal(err)
	}
	plain := &Response{}
	if err := DecodeResponse(enc, plain); err != nil {
		t.Fatal(err)
	}
	plain.Release()
	new(Response).Release()
	if puts() != before+2 || bufpool.Poisoned(plain.Subs[0].Data) {
		t.Fatal("Release of a frameless response touched the arena")
	}

	head := append(bufpool.Get(len(enc)), enc[:len(enc)-inlineMax-601]...)
	failed := &Response{}
	if err := ReadResponse(bytes.NewReader(nil), head, 0, 1<<20, nil, failed); err == nil {
		t.Fatal("truncated header decoded")
	}
	failed.Release()
	if puts() != before+2 {
		t.Fatal("a response that failed to decode released its caller's header")
	}
}

// landingRequest is a batch of three GetBlocks naming windows of inlineMax,
// 10+inlineMax and inlineMax+1 bytes, every byte 0xEE, and a Filter.
func landingRequest() (*Request, [][]byte) {
	fill := func(n int) []byte { return bytes.Repeat([]byte{0xEE}, n) }
	windows := [][]byte{fill(inlineMax), fill(10), fill(inlineMax), fill(inlineMax + 1)}
	req := &Request{Kind: KindBatch, Subs: make([]Request, 4)}
	for i := range req.Subs {
		req.Subs[i] = Request{Kind: KindGetBlock, BlockID: fmt.Sprint("b", i)}
	}
	req.Subs[3].Kind = KindFilter
	req.Subs[0].LandIn(windows[0])
	req.Subs[1].LandIn(windows[1], windows[2])
	req.Subs[2].LandIn(windows[3])
	return req, windows
}

// mixedReply answers landingRequest: sub 0 with exactly its windows' bytes,
// sub 1 with an error, sub 2 with one byte too many and the Filter with a
// bitmap of inlineMax bytes, the last two in the region but not landing.
func mixedReply() *Response {
	payload := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }
	return &Response{Subs: []Response{
		{Data: payload(inlineMax, 1), Crc: 7},
		{Err: "no such block"},
		{Data: payload(inlineMax+2, 3)},
		{Data: payload(inlineMax, 4), Matches: 9},
	}}
}

// TestReadResponseLandsInWindows: a GetBlock payload that fills its windows
// exactly lands there and nowhere else — Data nil, Landed the windows,
// PayloadBytes and WireSize what they would be had it stayed in Data — and
// the error reply, the wrong-length reply and the other kind's payload leave
// their windows untouched and arrive in Data as before. A bare GetBlock lands
// the same way. A region that is not the length the header declares fails
// before any payload is read.
func TestReadResponseLandsInWindows(t *testing.T) {
	req, windows := landingRequest()
	want := mixedReply()
	got, _, err := readPooled(t, want, req)
	if err != nil {
		t.Fatal(err)
	}
	sub := got.Subs
	if sub[0].Data != nil || len(sub[0].Landed()) != 1 || !bytes.Equal(windows[0], want.Subs[0].Data) {
		t.Fatalf("sub 0 did not land in its window: Data %d bytes, landed %d windows", len(sub[0].Data), len(sub[0].Landed()))
	}
	for i, w := range windows[1:] {
		if bytes.Count(w, []byte{0xEE}) != len(w) {
			t.Fatalf("window %d of a reply that did not land was written", i+1)
		}
	}
	for i := 1; i < 4; i++ {
		if sub[i].Landed() != nil || !bytes.Equal(sub[i].Data, want.Subs[i].Data) || sub[i].Err != want.Subs[i].Err {
			t.Fatalf("sub %d: want its reply in Data, as sent", i)
		}
	}
	if got.PayloadBytes() != want.PayloadBytes() || got.WireSize() != want.WireSize() {
		t.Fatalf("landed reply counts %d payload / %d wire bytes, want %d / %d",
			got.PayloadBytes(), got.WireSize(), want.PayloadBytes(), want.WireSize())
	}

	bare := &Request{Kind: KindGetBlock, BlockID: "b"}
	w1, w2 := make([]byte, 3000), make([]byte, inlineMax)
	bare.LandIn(w1, w2)
	block := bytes.Repeat([]byte("0123456789abcdef"), (3000+inlineMax)/16+1)[:3000+inlineMax]
	got, _, err = readPooled(t, &Response{Data: block}, bare)
	if err != nil || got.Data != nil || !bytes.Equal(append(append([]byte(nil), w1...), w2...), block) {
		t.Fatalf("bare GetBlock did not land across its two windows (err %v)", err)
	}

	_, segs, err := AppendResponse(nil, nil, want)
	if err != nil {
		t.Fatal(err)
	}
	region := bytes.Join(segs[1:], nil)
	req, windows = landingRequest()
	for _, size := range []int{len(region) - 1, len(region) + 1} {
		if err := ReadResponse(bytes.NewReader(region), segs[0], size, 1<<20, req, &Response{}); !errors.Is(err, errRegion) {
			t.Fatalf("region of %d bytes where the header declares %d: err %v, want errRegion", size, len(region), err)
		}
	}
	if bytes.Count(windows[0], []byte{0xEE}) != inlineMax {
		t.Fatal("a reply whose region was the wrong length wrote a window")
	}
}

// TestPrepareFrameRoundTrip: a multi-block prepare frame — payloads inline
// and in the region — and its per-block reply cross the wire intact, and
// the shapes ValidatePrepare refuses are refused by both the encoder and
// the decoder.
func TestPrepareFrameRoundTrip(t *testing.T) {
	big := bytes.Repeat([]byte{9}, inlineMax+5)
	req := &Request{Kind: KindPrepareBlock, Subs: []Request{
		{Kind: KindPrepareBlock, BlockID: "obj/e2/s0/b3", Data: big, Object: "obj", Epoch: 2, Crc: 7},
		{Kind: KindPrepareBlock, BlockID: "obj/e2/s1/b3", Data: []byte("small"), Object: "obj", Epoch: 2, Crc: 8},
		{Kind: KindPrepareBlock, BlockID: "obj/e2/s2/b3", Data: big[1:], Object: "obj", Epoch: 2, Crc: 9},
	}}
	requireRequestRoundTrip(t, req)
	requireResponseRoundTrip(t, &Response{Subs: []Response{{}, {Err: "cluster: block checksum mismatch"}, {}}})
	dup := &Request{Kind: KindPrepareBlock, Subs: []Request{req.Subs[1], req.Subs[1]}}
	if _, err := encodeRequest(dup); err == nil {
		t.Error("a frame naming one block twice encodes")
	}
	if err := DecodeRequest(rawPrepare(dup.Subs), &Request{}); err == nil {
		t.Error("a frame naming one block twice decodes")
	}
	nested := &Request{Kind: KindGetBlock, Subs: req.Subs}
	if _, err := encodeRequest(nested); err == nil {
		t.Error("a GetBlock carrying sub-requests encodes")
	}
}
