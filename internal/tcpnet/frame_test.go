package tcpnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"github.com/fusionstore/fusion/internal/bufpool"
	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/rpc"
)

// TestFrameOverWire drives batch and plain messages, with payloads on both
// sides of the codec's copy-or-reference threshold, through the frame writer
// and the frame reader.
func TestFrameOverWire(t *testing.T) {
	big := bytes.Repeat([]byte{0xA5}, 300<<10)
	requests := []*rpc.Request{
		{Kind: rpc.KindPing},
		{Kind: rpc.KindPrepareBlock, BlockID: "b", Object: "o", Epoch: 3, Crc: 9, Data: big},
		{Kind: rpc.KindBatch, DeadlineMicros: 250_000, Subs: []rpc.Request{
			{Kind: rpc.KindGetBlock, BlockID: "b1", Offset: 8, Length: 32, CallerVerifies: true},
			{Kind: rpc.KindFilter, Chunk: rpc.ChunkRef{BlockID: "b2", Offset: 64}},
			{Kind: rpc.KindProject, Bitmap: big[:5000]},
		}},
	}
	responses := []*rpc.Response{
		{},
		{Data: big, Crc: 7},
		{Subs: []rpc.Response{{Data: []byte("x")}, {Err: "nope"}, {Data: big}}},
	}
	var wire bytes.Buffer
	var f framer
	for i, req := range requests {
		if err := f.writeRequest(&wire, req); err != nil {
			t.Fatal(err)
		}
		frame, err := f.read(&wire)
		if err != nil {
			t.Fatal(err)
		}
		got := &rpc.Request{}
		if err := rpc.DecodeRequest(frame, got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(req, got) {
			t.Fatalf("request %d: wire round trip mismatch", i)
		}
	}
	for i, resp := range responses {
		if err := f.writeResponse(&wire, resp); err != nil {
			t.Fatal(err)
		}
		frame, err := f.read(&wire)
		if err != nil {
			t.Fatal(err)
		}
		got := &rpc.Response{}
		if err := rpc.DecodeResponse(frame, got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resp, got) {
			t.Fatalf("response %d: wire round trip mismatch", i)
		}
	}
	if wire.Len() != 0 {
		t.Fatalf("%d bytes left on the wire", wire.Len())
	}
}

// TestBatchOverTCP sends a scatter-gather batch through a real Server/Client
// pair and checks the sub-responses come back index-aligned with per-op
// error isolation.
func TestBatchOverTCP(t *testing.T) {
	client, _ := startCluster(t, 1)
	if resp, err := client.Call(0, &rpc.Request{Kind: rpc.KindPutBlock, BlockID: "b", Data: []byte("0123456789")}); err != nil || resp.Err != "" {
		t.Fatalf("put: %v %s", err, resp.Err)
	}
	resp, err := client.Call(0, &rpc.Request{
		Kind: rpc.KindBatch,
		Subs: []rpc.Request{
			{Kind: rpc.KindGetBlock, BlockID: "b", Offset: 2, Length: 3},
			{Kind: rpc.KindGetBlock, BlockID: "missing"},
			{Kind: rpc.KindGetBlock, BlockID: "b"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != "" {
		t.Fatalf("batch outer error: %s", resp.Err)
	}
	if len(resp.Subs) != 3 {
		t.Fatalf("got %d sub-responses, want 3", len(resp.Subs))
	}
	if string(resp.Subs[0].Data) != "234" {
		t.Fatalf("sub 0: %q", resp.Subs[0].Data)
	}
	if resp.Subs[1].Err == "" {
		t.Fatal("sub 1: missing block must carry a sub-error")
	}
	if string(resp.Subs[2].Data) != "0123456789" {
		t.Fatalf("sub 2: %q", resp.Subs[2].Data)
	}
	// A malformed batch never reaches the wire.
	if _, err := client.Call(0, &rpc.Request{Kind: rpc.KindBatch}); err == nil {
		t.Fatal("empty batch was sent")
	}
}

// TestHeaderOnlyFrameAllocatesLittle is the regression test for the
// header-only OOM: a 4-byte prefix declaring a 2 GiB frame, then EOF, must
// fail having allocated a few MiB, not the declared length.
func TestHeaderOnlyFrameAllocatesLittle(t *testing.T) {
	hdr := binary.BigEndian.AppendUint32(nil, maxFrame)
	var f framer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := f.read(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("header-only frame was accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 8<<20 {
		t.Fatalf("a 4-byte header made the reader allocate %d bytes", got)
	}
	// The next size up from the limit is refused outright.
	if _, err := f.read(bytes.NewReader(binary.BigEndian.AppendUint32(nil, maxFrame+1))); err == nil {
		t.Fatal("frame beyond maxFrame was accepted")
	}
}

// TestFrameLongerThanUpfront: a frame longer than the up-front allocation
// arrives whole through the grow-as-bytes-arrive path, and a short one
// fails.
func TestFrameLongerThanUpfront(t *testing.T) {
	body := make([]byte, 3*maxUpfront+17)
	for i := range body {
		body[i] = byte(i * 7)
	}
	wire := append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
	var f framer
	got, err := f.read(bytes.NewReader(wire))
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("long frame corrupted (err %v)", err)
	}
	if _, err := f.read(bytes.NewReader(wire[:len(wire)-1])); err == nil {
		t.Fatal("truncated long frame was accepted")
	}
}

// churnArena rents and returns buffers of n bytes' size class. Under
// poisoning, were a live buffer of that class already back in the arena,
// one of these rentals would be it and the fill on its return would show in
// the live bytes.
func churnArena(n int) {
	for i := 0; i < 8; i++ {
		bufpool.Put(bufpool.GetLen(n))
	}
}

// holdStore checks, on the server's goroutine, that the payload Put is
// handed stays intact for the whole of the call while the arena churns.
type holdStore struct {
	*cluster.MemStore
	t *testing.T
}

func (s *holdStore) Put(id string, data []byte) error {
	want := append([]byte(nil), data...)
	churnArena(len(data) + 64)
	err := s.MemStore.Put(id, data)
	churnArena(len(data) + 64)
	if !bytes.Equal(data, want) || bufpool.Poisoned(data) {
		s.t.Errorf("block %s: request payload changed during Handle", id)
	}
	return err
}

// TestPayloadsOutlivePool runs under arena poisoning (and -race in CI) and pins
// who owns a frame buffer on each side. A decoded payload aliases its frame,
// so the server keeps a request frame out of the arena until Handle and the
// response write are done (holdStore checks that from inside Handle). A
// client's reply frame is rented too, and giving it back is the holder's
// choice: a response that is never released — held here across 100 further
// calls and arena churn, as a cache holds one — stays intact; a released
// one's buffer goes back (its bytes read as poison at once, a batch reply's
// sub-responses all with it), is handed out again, and no response received
// afterwards is disturbed by it; releasing twice, or releasing a reply that
// never crossed a socket, does nothing.
func TestPayloadsOutlivePool(t *testing.T) {
	defer bufpool.SetPoison(bufpool.SetPoison(true))
	node := cluster.NewNode(0, &holdStore{MemStore: cluster.NewMemStore(), t: t})
	srv, err := NewServer(node, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := NewClient([]string{srv.Addr()})
	defer client.Close()

	block := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 100<<10+i) }
	put := func(i int) {
		t.Helper()
		resp, err := client.Call(0, &rpc.Request{Kind: rpc.KindPutBlock, BlockID: fmt.Sprint("b", i), Data: block(i)})
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		if resp.Err != "" {
			t.Fatalf("put %d: %s", i, resp.Err)
		}
	}
	put(0)
	held, err := client.Call(0, &rpc.Request{Kind: rpc.KindGetBlock, BlockID: "b0"})
	if err != nil || !bytes.Equal(held.Data, block(0)) {
		t.Fatalf("get: %v", err)
	}
	for i := 1; i <= 50; i++ {
		put(i)
		resp, err := client.Call(0, &rpc.Request{Kind: rpc.KindBatch, Subs: []rpc.Request{
			{Kind: rpc.KindGetBlock, BlockID: fmt.Sprint("b", i)},
			{Kind: rpc.KindGetBlock, BlockID: "b0", Offset: 10, Length: 10},
		}})
		if err != nil || !bytes.Equal(resp.Subs[0].Data, block(i)) || !bytes.Equal(resp.Subs[1].Data, block(0)[:10]) {
			t.Fatalf("batched get %d: %v", i, err)
		}
		// One Release on the outer response returns the one frame both
		// sub-responses alias; a second does nothing (rpc's
		// TestResponseRelease counts the buffers).
		sub0, sub1 := resp.Subs[0].Data, resp.Subs[1].Data
		resp.Release()
		resp.Release()
		if !bufpool.Poisoned(sub0) || !bufpool.Poisoned(sub1) {
			t.Fatalf("batched get %d: a sub-response outlived the release of its frame", i)
		}
		churnArena(len(held.Data) + 64)
	}
	if bufpool.Poisoned(held.Data) || !bytes.Equal(held.Data, block(0)) {
		t.Fatal("an unreleased response held across 100 calls was overwritten")
	}

	// A released frame is handed out again. sync.Pool returns the buffer put
	// last unless the goroutine changed processors in between (or, under the
	// race detector, the pool dropped it on purpose), so a few tries.
	reused := false
	for try := 0; try < 20 && !reused; try++ {
		resp, err := client.Call(0, &rpc.Request{Kind: rpc.KindGetBlock, BlockID: "b0"})
		if err != nil || !bytes.Equal(resp.Data, block(0)) {
			t.Fatalf("get after releases: %v", err)
		}
		old := resp.Data
		resp.Release()
		rented := bufpool.GetLen(len(old) + 64)
		for i := range rented[:cap(rented)] {
			rented[:cap(rented)][i] = 0x11
		}
		reused = old[0] == 0x11 && old[len(old)-1] == 0x11
		bufpool.Put(rented)
	}
	if !reused {
		t.Fatal("a released reply frame was never handed out again in 20 tries")
	}
	if bufpool.Poisoned(held.Data) || !bytes.Equal(held.Data, block(0)) {
		t.Fatal("releasing other responses disturbed one that was not released")
	}

	// A reply that never crossed a socket has no frame to give back.
	local := node.Handle(&rpc.Request{Kind: rpc.KindGetBlock, BlockID: "b0"})
	local.Release()
	new(rpc.Response).Release()
	if !bytes.Equal(local.Data, block(0)) {
		t.Fatal("Release of a frameless response touched its data")
	}
}

// frameCases are the three messages the framing microbenchmarks time, the
// sizes of the benchmark's traffic: an empty request and response, a
// 128 KiB PrepareBlock, and a 1 MiB GetBlock reply.
var frameCases = []struct {
	name string
	req  *rpc.Request
	resp *rpc.Response
}{
	{"Empty", &rpc.Request{Kind: rpc.KindPing}, &rpc.Response{}},
	{"Prepare128K", &rpc.Request{Kind: rpc.KindPrepareBlock, BlockID: "lineitem/12/3/4", Object: "lineitem", Epoch: 12, Crc: 0xDEADBEEF, Data: make([]byte, 128<<10)}, nil},
	{"GetReply1M", nil, &rpc.Response{Data: make([]byte, 1<<20), Crc: 0xDEADBEEF, Cost: rpc.Cost{DiskBytes: 1 << 20}}},
}

// frameRoundTrip frames, reads back and decodes req as a server does and
// resp as a client whose caller releases it does, over an in-memory wire:
// everything an RPC costs but the socket and Node.Handle.
func frameRoundTrip(tb testing.TB, wire *bytes.Buffer, f *framer, req *rpc.Request, resp *rpc.Response) {
	if req != nil {
		if err := f.writeRequest(wire, req); err != nil {
			tb.Fatal(err)
		}
		frame, err := f.read(wire)
		if err != nil {
			tb.Fatal(err)
		}
		if err := rpc.DecodeRequest(frame, new(rpc.Request)); err != nil {
			tb.Fatal(err)
		}
		bufpool.Put(frame)
	}
	if resp != nil {
		if err := f.writeResponse(wire, resp); err != nil {
			tb.Fatal(err)
		}
		frame, err := f.read(wire)
		if err != nil {
			tb.Fatal(err)
		}
		got := new(rpc.Response)
		if err := rpc.DecodePooledResponse(frame, got); err != nil {
			tb.Fatal(err)
		}
		got.Release()
	}
}

func BenchmarkFrame(b *testing.B) {
	for _, c := range frameCases {
		b.Run(c.name, func(b *testing.B) {
			var wire bytes.Buffer
			var f framer
			frameRoundTrip(b, &wire, &f, c.req, c.resp) // size the wire and the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				frameRoundTrip(b, &wire, &f, c.req, c.resp)
			}
		})
	}
}

// TestFrameAllocCeiling pins the allocation count of framing, which under
// gob was 1,049 for an empty request and response: the in-memory round trip
// of each benchmark case, and a whole Ping over loopback — client, server
// and Node.Handle together.
func TestFrameAllocCeiling(t *testing.T) {
	for _, c := range frameCases {
		var wire bytes.Buffer
		var f framer
		frameRoundTrip(t, &wire, &f, c.req, c.resp)
		if got := testing.AllocsPerRun(100, func() { frameRoundTrip(t, &wire, &f, c.req, c.resp) }); got > 8 {
			t.Errorf("%s: %.0f allocs per framed round trip, want <= 8", c.name, got)
		}
	}
	client, _ := startCluster(t, 1)
	ping := &rpc.Request{Kind: rpc.KindPing}
	if _, err := client.Call(0, ping); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() {
		if _, err := client.Call(0, ping); err != nil {
			t.Fatal(err)
		}
	})
	if got > 8 {
		t.Errorf("%.0f allocs per Ping over loopback, want <= 8", got)
	}
}
