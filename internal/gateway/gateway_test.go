package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/metrics"
	"github.com/fusionstore/fusion/internal/simnet"
	"github.com/fusionstore/fusion/internal/store"
	"github.com/fusionstore/fusion/internal/trace"
)

func testServer(t *testing.T) (*httptest.Server, []byte) {
	t.Helper()
	srv, _, _, data := testStack(t)
	return srv, data
}

// testStack is testServer with the store and the cluster behind it, for tests
// that reach past the gateway to fault a node.
func testStack(t *testing.T) (*httptest.Server, *store.Store, *simnet.Cluster, []byte) {
	t.Helper()
	cl := simnet.New(simnet.DefaultConfig())
	opts := store.FusionOptions()
	opts.StorageBudget = 1
	opts.Metrics = metrics.NewHistogramSet()
	s, err := store.New(cl, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(s))
	t.Cleanup(srv.Close)

	w := lpq.NewWriter([]lpq.Column{
		{Name: "k", Type: lpq.Int64},
		{Name: "v", Type: lpq.Float64},
		{Name: "tag", Type: lpq.String},
	}, lpq.DefaultWriterOptions())
	var ks []int64
	var vs []float64
	var tags []string
	for i := 0; i < 2000; i++ {
		ks = append(ks, int64(i))
		vs = append(vs, float64(i)/4)
		tags = append(tags, fmt.Sprintf("t%d", i%5))
	}
	if err := w.WriteRowGroup([]lpq.ColumnData{lpq.IntColumn(ks), lpq.FloatColumn(vs), lpq.StringColumn(tags)}); err != nil {
		t.Fatal(err)
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return srv, s, cl, data
}

func do(t *testing.T, method, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestGatewayLifecycle(t *testing.T) {
	srv, object := testServer(t)

	// Health.
	resp, _ := do(t, "GET", srv.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	// Put.
	resp, body := do(t, "PUT", srv.URL+"/objects/tbl", object)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("put = %d: %s", resp.StatusCode, body)
	}
	var putInfo map[string]any
	if err := json.Unmarshal(body, &putInfo); err != nil {
		t.Fatal(err)
	}
	if putInfo["layout"] != "FAC" {
		t.Fatalf("layout = %v", putInfo["layout"])
	}

	// Meta.
	resp, body = do(t, "GET", srv.URL+"/objects/tbl/meta", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("meta = %d", resp.StatusCode)
	}
	var meta map[string]any
	if err := json.Unmarshal(body, &meta); err != nil {
		t.Fatal(err)
	}
	if meta["rows"].(float64) != 2000 {
		t.Fatalf("rows = %v", meta["rows"])
	}

	// Get (full + range).
	resp, body = do(t, "GET", srv.URL+"/objects/tbl", nil)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, object) {
		t.Fatalf("get = %d, %d bytes", resp.StatusCode, len(body))
	}
	resp, body = do(t, "GET", srv.URL+"/objects/tbl?offset=4&length=16", nil)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, object[4:20]) {
		t.Fatalf("range get = %d", resp.StatusCode)
	}

	// Query with rows.
	resp, body = do(t, "POST", srv.URL+"/query", []byte("SELECT k, tag FROM tbl WHERE k < 3"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query = %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.RowCount != 3 || len(qr.Rows) != 3 {
		t.Fatalf("query rows = %d/%d", qr.RowCount, len(qr.Rows))
	}
	if qr.Rows[0][1] != "t0" {
		t.Fatalf("row content wrong: %v", qr.Rows[0])
	}

	// Query with aggregates.
	resp, body = do(t, "POST", srv.URL+"/query", []byte("SELECT COUNT(*), AVG(v) FROM tbl WHERE tag = 't1'"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("agg query = %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Aggregates["COUNT(*)"].(float64) != 400 {
		t.Fatalf("COUNT(*) = %v", qr.Aggregates["COUNT(*)"])
	}
	// AVG(v) reads a column nothing projects: each row group's chunk is
	// reduced on its node, and the stats say so.
	if n, _ := qr.Stats["group_agg_rpcs"].(float64); n == 0 {
		t.Fatalf("no pushed ungrouped aggregate in the stats %v", qr.Stats)
	}

	// Scrub.
	resp, body = do(t, "POST", srv.URL+"/scrub/tbl", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrub = %d: %s", resp.StatusCode, body)
	}
	var rep store.ScrubReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Stripes == 0 || rep.CorruptStripes != 0 {
		t.Fatalf("scrub report: %+v", rep)
	}

	// Delete, then 404.
	resp, _ = do(t, "DELETE", srv.URL+"/objects/tbl", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete = %d", resp.StatusCode)
	}
	resp, _ = do(t, "GET", srv.URL+"/objects/tbl", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete = %d", resp.StatusCode)
	}
}

// findSpan walks a span-tree snapshot for a span whose name starts with
// prefix, depth first.
func findSpan(spans []trace.SpanJSON, prefix string) *trace.SpanJSON {
	for i := range spans {
		if strings.HasPrefix(spans[i].Name, prefix) {
			return &spans[i]
		}
		if s := findSpan(spans[i].Children, prefix); s != nil {
			return s
		}
	}
	return nil
}

// TestDebugFusionz drives a traced PUT/GET/query workload and asserts the
// observability endpoint reports per-stage spans, latency histograms, and a
// read-amplification ratio — the ISSUE's acceptance check for the tracing
// layer.
func TestDebugFusionz(t *testing.T) {
	srv, object := testServer(t)
	if resp, body := do(t, "PUT", srv.URL+"/objects/tbl", object); resp.StatusCode != http.StatusCreated {
		t.Fatalf("put = %d: %s", resp.StatusCode, body)
	}
	if resp, _ := do(t, "GET", srv.URL+"/objects/tbl", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("get = %d", resp.StatusCode)
	}
	if resp, body := do(t, "POST", srv.URL+"/query", []byte("SELECT k FROM tbl WHERE k < 100")); resp.StatusCode != http.StatusOK {
		t.Fatalf("query = %d: %s", resp.StatusCode, body)
	}

	// JSON form: histograms + span trees.
	resp, body := do(t, "GET", srv.URL+"/debug/fusionz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fusionz = %d", resp.StatusCode)
	}
	var dump struct {
		Histograms []metrics.HistogramSnapshot `json:"histograms"`
		Traces     []trace.SpanJSON            `json:"traces"`
		TracesSeen uint64                      `json:"traces_seen"`
	}
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatalf("fusionz json: %v\n%s", err, body)
	}
	if dump.TracesSeen < 3 {
		t.Fatalf("traces_seen = %d, want >= 3 (put, get, query)", dump.TracesSeen)
	}
	ops := make(map[string]bool)
	for _, h := range dump.Histograms {
		if h.Count == 0 {
			t.Fatalf("histogram %s[%d] has zero count", h.Op, h.Node)
		}
		ops[h.Op] = true
	}
	for _, want := range []string{"op.Put", "op.Get", "op.Query", "rpc.GetBlock"} {
		if !ops[want] {
			t.Fatalf("histograms missing op %q (have %v)", want, ops)
		}
	}

	// The traced query must carry its per-stage children and a
	// read-amplification ratio on the root.
	q := findSpan(dump.Traces, "http.query")
	if q == nil {
		t.Fatalf("no http.query trace in %d retained traces", len(dump.Traces))
	}
	if q.ReadAmp <= 0 {
		t.Fatalf("query trace read amplification = %v, want > 0", q.ReadAmp)
	}
	for _, stage := range []string{"store.Query", "meta", "filter", "project"} {
		if findSpan([]trace.SpanJSON{*q}, stage) == nil {
			t.Fatalf("query trace missing %q stage:\n%s", stage, body)
		}
	}
	if g := findSpan(dump.Traces, "http.get"); g == nil {
		t.Fatal("no http.get trace retained")
	} else if findSpan([]trace.SpanJSON{*g}, "store.Get") == nil {
		t.Fatal("get trace missing store.Get child")
	}

	// Text form: histogram table, health section, rendered trees.
	resp, body = do(t, "GET", srv.URL+"/debug/fusionz?format=text", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fusionz text = %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		"== histograms ==", "== node health ==", "== recent traces",
		"http.query", "read amplification:",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("text dump missing %q:\n%s", want, text)
		}
	}
}

// TestReadRotShowsInFusionz: a block rotted at rest costs a read nothing —
// the GET is bit-exact, rebuilt from the stripe's survivors — and leaves its
// record in the block's node health on /debug/fusionz, which has no repair
// queue or breaker sections. Nothing rewrites the block until an operator
// scrubs with repair, which rewrites exactly that one; a second scrub is clean.
func TestReadRotShowsInFusionz(t *testing.T) {
	srv, s, cl, object := testStack(t)
	if resp, body := do(t, "PUT", srv.URL+"/objects/tbl", object); resp.StatusCode != http.StatusCreated {
		t.Fatalf("put = %d: %s", resp.StatusCode, body)
	}
	meta, err := s.Meta("tbl")
	if err != nil {
		t.Fatal(err)
	}
	st := meta.Stripes[0]
	rotted := st.Nodes[0]
	bs := cl.Node(rotted).Blocks
	block, err := bs.Get(st.BlockIDs[0], 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	block = bytes.Clone(block) // a block read from a store is read-only
	block[len(block)/2] ^= 0x55
	if err := bs.Put(st.BlockIDs[0], block); err != nil {
		t.Fatal(err)
	}

	if resp, got := do(t, "GET", srv.URL+"/objects/tbl", nil); resp.StatusCode != http.StatusOK || !bytes.Equal(got, object) {
		t.Fatalf("get over a rotted block = %d, %d bytes (want %d, bit-exact)", resp.StatusCode, len(got), len(object))
	}

	resp, body := do(t, "GET", srv.URL+"/debug/fusionz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fusionz = %d", resp.StatusCode)
	}
	var dump map[string]json.RawMessage
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatalf("fusionz json: %v\n%s", err, body)
	}
	for _, gone := range []string{"repair", "breakers"} {
		if _, ok := dump[gone]; ok {
			t.Errorf("fusionz still has a %q section", gone)
		}
	}
	var health map[int]metrics.NodeHealth
	if err := json.Unmarshal(dump["health"], &health); err != nil {
		t.Fatalf("fusionz health: %v\n%s", err, dump["health"])
	}
	for node := 0; node < cl.NumNodes(); node++ {
		want := uint64(0)
		if node == rotted {
			want = 1
		}
		if got := health[node].Checksums; got != want {
			t.Errorf("node %d health counts %d checksum failures, want %d", node, got, want)
		}
	}
	resp, body = do(t, "GET", srv.URL+"/debug/fusionz?format=text", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fusionz text = %d", resp.StatusCode)
	}
	var line string
	for _, l := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(l, fmt.Sprintf("node %d: ", rotted)) {
			line = l
		}
	}
	if !strings.HasSuffix(line, " checksums 1") {
		t.Errorf("text health line for node %d = %q, want it to end in checksums 1", rotted, line)
	}
	for _, gone := range []string{"repair queue", "circuit breakers"} {
		if strings.Contains(string(body), gone) {
			t.Errorf("text dump still has a %q section", gone)
		}
	}

	scrub := func(target string) store.ScrubReport {
		t.Helper()
		resp, body := do(t, "POST", srv.URL+target, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d: %s", target, resp.StatusCode, body)
		}
		var rep store.ScrubReport
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatalf("%s: %v\n%s", target, err, body)
		}
		return rep
	}
	if rep := scrub("/scrub/tbl?repair=1"); rep.ChecksumFailures != 1 || rep.Repaired != 1 {
		t.Fatalf("repairing scrub = %+v, want the one rotted block found and rewritten", rep)
	}
	if rep := scrub("/scrub/tbl"); rep.MissingBlocks != 0 || rep.ChecksumFailures != 0 || rep.CorruptStripes != 0 || rep.Repaired != 0 {
		t.Fatalf("scrub after the repair = %+v, want clean", rep)
	}
}

func TestGatewayErrors(t *testing.T) {
	srv, object := testServer(t)
	// Garbage object.
	resp, _ := do(t, "PUT", srv.URL+"/objects/bad", []byte("not lpq"))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad put = %d", resp.StatusCode)
	}
	// Query on missing object.
	resp, _ = do(t, "POST", srv.URL+"/query", []byte("SELECT a FROM missing"))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing query = %d", resp.StatusCode)
	}
	// Bad SQL.
	do(t, "PUT", srv.URL+"/objects/tbl", object)
	resp, body := do(t, "POST", srv.URL+"/query", []byte("SELEC nope"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad sql = %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "error") {
		t.Fatal("error body must carry a message")
	}
	// Empty query body.
	resp, _ = do(t, "POST", srv.URL+"/query", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty query = %d", resp.StatusCode)
	}
	// Bad range params.
	resp, _ = do(t, "GET", srv.URL+"/objects/tbl?offset=x", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad offset = %d", resp.StatusCode)
	}
	resp, _ = do(t, "GET", srv.URL+"/objects/tbl?offset=999999999", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range offset = %d", resp.StatusCode)
	}
	// A valid object whose request deadline has already passed: the Put
	// fails with the deadline, which is a timeout, not a bad object.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	req := httptest.NewRequest("PUT", "/objects/late", bytes.NewReader(object)).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.Config.Handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired put = %d: %s", rec.Code, rec.Body)
	}
}

// TestExpiredRequestsTimeOut: every route that carries the request's context
// into the store answers a request whose deadline has already passed with
// 504 — the deadline is the only overload signal the gateway gives — and the
// refused request leaves the stored object as it was.
func TestExpiredRequestsTimeOut(t *testing.T) {
	srv, object := testServer(t)
	if resp, body := do(t, "PUT", srv.URL+"/objects/tbl", object); resp.StatusCode != http.StatusCreated {
		t.Fatalf("put = %d: %s", resp.StatusCode, body)
	}
	routes := []struct {
		name, method, target string
		body                 []byte
	}{
		{"put", "PUT", "/objects/late", object},
		{"overwrite", "PUT", "/objects/tbl", object[:len(object)/2]},
		{"get", "GET", "/objects/tbl", nil},
		{"ranged-get", "GET", "/objects/tbl?offset=0&length=64", nil},
		{"delete", "DELETE", "/objects/tbl", nil},
		{"query", "POST", "/query", []byte("SELECT COUNT(*) FROM tbl WHERE k < 10")},
		{"scrub", "POST", "/scrub/tbl?repair=1", nil},
		{"scruball", "POST", "/scruball?repair=1", nil},
		{"repair", "POST", "/repair/0", nil},
		{"reconcile", "POST", "/reconcile?force=1", nil},
	}
	for _, rt := range routes {
		t.Run(rt.name, func(t *testing.T) {
			ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
			defer cancel()
			req := httptest.NewRequest(rt.method, rt.target, bytes.NewReader(rt.body)).WithContext(ctx)
			rec := httptest.NewRecorder()
			srv.Config.Handler.ServeHTTP(rec, req)
			if rec.Code != http.StatusGatewayTimeout {
				t.Fatalf("expired %s %s = %d: %s", rt.method, rt.target, rec.Code, rec.Body)
			}
			if !strings.Contains(rec.Body.String(), "deadline") {
				t.Fatalf("504 body must name the deadline: %s", rec.Body)
			}
			resp, got := do(t, "GET", srv.URL+"/objects/tbl", nil)
			if resp.StatusCode != http.StatusOK || !bytes.Equal(got, object) {
				t.Fatalf("tbl after a refused %s: %d, %d bytes (want %d, byte-exact)",
					rt.name, resp.StatusCode, len(got), len(object))
			}
			if resp, _ := do(t, "GET", srv.URL+"/objects/late", nil); resp.StatusCode != http.StatusNotFound {
				t.Fatalf("a refused %s left an object named late: %d", rt.name, resp.StatusCode)
			}
		})
	}
}

// TestStatusFor pins the error → HTTP status mapping: a deadline anywhere in
// the chain is 504 whatever the message says, only an object the store cannot
// parse is 422, and a failure the client cannot fix (no quorum, nodes down)
// is 500 — never 422.
func TestStatusFor(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"deadline", fmt.Errorf("store: put obj: %w", context.DeadlineExceeded), http.StatusGatewayTimeout},
		{"deadline-beats-message", fmt.Errorf("object obj not found: %w", context.DeadlineExceeded), http.StatusGatewayTimeout},
		{"invalid-object", errors.New("store: obj is not a valid lpq object: bad magic"), http.StatusUnprocessableEntity},
		{"not-found", errors.New("store: object obj not found"), http.StatusNotFound},
		{"parse-error", errors.New("sql: parse error at 1:1"), http.StatusBadRequest},
		{"unknown-column", errors.New("sql: unknown column nope"), http.StatusBadRequest},
		{"range-beyond-object", errors.New("store: range 10+5 beyond object of 12 bytes"), http.StatusBadRequest},
		{"no-quorum", errors.New("metakv: epoch read: no quorum"), http.StatusInternalServerError},
		{"cancelled", fmt.Errorf("store: get obj: %w", context.Canceled), http.StatusInternalServerError},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := statusFor(c.err); got != c.want {
				t.Errorf("statusFor(%v) = %d, want %d", c.err, got, c.want)
			}
		})
	}
}
