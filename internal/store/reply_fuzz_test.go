package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/colenc"
	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/simnet"
	"github.com/fusionstore/fusion/internal/sql"
)

// The partial states a node returns — per-group aggregate states for a pushed
// GROUP BY (an ungrouped aggregate's being one group with no key), ranked
// candidates for a pushed top-k — are merged by the coordinator and end up
// indexing the footer and filling result columns and values. The
// fuzz targets below put arbitrary bytes through the wire decoder and hand
// what decodes to a real query as every node's reply: the query must return a
// well-formed table or an error, never panic, and never hold more than it was
// sent.

// forgingClient answers like the cluster it wraps, except that while forged
// is set every GroupAgg and TopK reply carries forged's partial states. It also keeps the genuine replies it saw, as seeds.
type forgingClient struct {
	cluster.Client
	mu      sync.Mutex
	forged  *rpc.Response
	genuine map[rpc.Kind]*rpc.Response
}

func (c *forgingClient) Call(node int, req *rpc.Request) (*rpc.Response, error) {
	resp, err := c.Client.Call(node, req)
	if err != nil {
		return resp, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	patch := func(kind rpc.Kind, r *rpc.Response) {
		if (kind != rpc.KindGroupAgg && kind != rpc.KindTopK) || r.Err != "" {
			return
		}
		if c.forged == nil {
			c.genuine[kind] = &rpc.Response{Groups: r.Groups, TopRows: r.TopRows, Matches: r.Matches}
			return
		}
		r.Groups, r.TopRows = c.forged.Groups, c.forged.TopRows
	}
	patch(req.Kind, resp)
	for i := range req.Subs {
		if i < len(resp.Subs) {
			patch(req.Subs[i].Kind, &resp.Subs[i])
		}
	}
	return resp, nil
}

func (c *forgingClient) forge(r *rpc.Response) {
	c.mu.Lock()
	c.forged = r
	c.mu.Unlock()
}

// fuzzReplies runs query against a four-row-group object with every node's
// reply of the given kind forged from the fuzzer's frame.
func fuzzReplies(f *testing.F, kind rpc.Kind, query string, hostile []*rpc.Response) {
	cl := &forgingClient{Client: simnet.New(simnet.DefaultConfig()), genuine: map[rpc.Kind]*rpc.Response{}}
	opts := fusionTestOptions()
	opts.QueryWorkers = 8
	s, err := New(cl, opts)
	if err != nil {
		f.Fatal(err)
	}
	const rowGroups, rowsPer = 4, 3000
	data, _, _ := makeObject(f, rowGroups, rowsPer, 123)
	if _, err := s.Put("obj", data); err != nil {
		f.Fatal(err)
	}
	want, err := s.Query(query)
	if err != nil || cl.genuine[kind] == nil {
		f.Fatalf("%q pushed no %v to a node (%v): the target would fuzz nothing", query, kind, err)
	}
	frame := func(r *rpc.Response) []byte {
		_, segs, err := rpc.AppendResponse(nil, nil, r)
		if err != nil {
			f.Fatal(err)
		}
		return bytes.Join(segs, nil)
	}
	good := frame(cl.genuine[kind])
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte{})
	for _, r := range hostile {
		f.Add(frame(r))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		forged := &rpc.Response{}
		if err := rpc.DecodeResponse(b, forged); err != nil {
			return
		}
		if n := len(forged.Groups) + len(forged.TopRows); n > len(b) {
			t.Fatalf("%d partial states decoded from %d bytes", n, len(b))
		}
		cl.forge(forged)
		res, err := s.Query(query)
		cl.forge(nil)
		if err != nil {
			return
		}
		if len(res.Columns) != len(want.Columns) || len(res.Data) != len(want.Data) || len(res.AggValues) != len(want.AggValues) {
			t.Fatalf("result has columns %v and %d values, want %v and %d", res.Columns, len(res.AggValues), want.Columns, len(want.AggValues))
		}
		// An ungrouped aggregate is a literal of its reference's kind, and a
		// COUNT (the only integer one) counts at most every row of the object.
		for i, v := range res.AggValues {
			if v.Kind != want.AggValues[i].Kind || (v.Kind == sql.LitInt && (v.I < 0 || v.I > rowGroups*rowsPer)) {
				t.Fatalf("%s = %v, want a value of the kind of %v, counting at most %d rows", res.AggLabels[i], v, want.AggValues[i], rowGroups*rowsPer)
			}
		}
		for i, col := range res.Data {
			if col.Type != want.Data[i].Type || col.Len() != res.Data[0].Len() {
				t.Fatalf("column %s is %v x %d beside a first column of %d rows, want %v", res.Columns[i], col.Type, col.Len(), res.Data[0].Len(), want.Data[i].Type)
			}
			// A grouped COUNT counts at most every row of the object.
			if strings.HasPrefix(res.Columns[i], "COUNT(") {
				for _, n := range col.Ints {
					if n < 0 || n > rowGroups*rowsPer {
						t.Fatalf("%s holds %d, counting at most %d rows", res.Columns[i], n, rowGroups*rowsPer)
					}
				}
			}
		}
		// Four row groups each answered with the forged states: nothing
		// larger than that, plus the genuine answer, can come of merging them.
		if len(res.Data) > 0 && res.Data[0].Len() > rowGroups*(len(forged.Groups)+len(forged.TopRows))+want.Data[0].Len() {
			t.Fatalf("%d result rows from %d forged states", res.Data[0].Len(), len(forged.Groups)+len(forged.TopRows))
		}
	})
}

// FuzzGroupAggReply forges the partial states of a pushed GROUP BY. The
// hand-made seeds: no key at all, a key of the wrong kind, one key too many,
// too few states, states of other aggregates, counters at their limits, a
// count 2^40 rows beyond a genuine one, and a group of 2^40 rows.
func FuzzGroupAggReply(f *testing.F) {
	agg := func(kind sql.AggKind) sql.AggState { return sql.AggState{Kind: kind, Count: 3, Sum: 1.5, Init: true} }
	group := func(key []sql.Literal, aggs ...sql.AggState) *rpc.Response {
		return &rpc.Response{Groups: []sql.GroupPartial{{Key: key, Rows: 3, Aggs: aggs}}}
	}
	a, b := sql.StringLit("A"), sql.StringLit("B")
	fuzzReplies(f, rpc.KindGroupAgg,
		"SELECT flag, COUNT(*), SUM(price), AVG(price) FROM obj WHERE qty < 40 GROUP BY flag ORDER BY SUM(price) DESC, flag",
		[]*rpc.Response{
			group(nil, agg(sql.AggCount), agg(sql.AggSum), agg(sql.AggAvg)),
			group([]sql.Literal{sql.IntLit(7)}, agg(sql.AggCount), agg(sql.AggSum), agg(sql.AggAvg)),
			group([]sql.Literal{a, b}, agg(sql.AggCount), agg(sql.AggSum), agg(sql.AggAvg)),
			group([]sql.Literal{a}, agg(sql.AggCount)),
			group([]sql.Literal{a}, agg(sql.AggMin), agg(sql.AggMin), sql.AggState{Kind: sql.AggKind(99), IsString: true, MinS: "x"}),
			group([]sql.Literal{b}, sql.AggState{Count: math.MinInt64}, sql.AggState{Sum: math.NaN()}, sql.AggState{}),
			group([]sql.Literal{a}, sql.AggState{Kind: sql.AggCount, Count: 3309 + 1<<40}, agg(sql.AggSum), agg(sql.AggAvg)),
			{Groups: []sql.GroupPartial{{Key: []sql.Literal{a}, Rows: 1 << 40, Aggs: []sql.AggState{agg(sql.AggCount), agg(sql.AggSum), agg(sql.AggAvg)}}}},
		})
}

// FuzzTopKReply forges the ranked candidates of a pushed top-k. The hand-made
// seeds: a row group and a row that do not exist (above and below), a key of
// the wrong kind, a NaN key (legitimate, if odd), more candidates than k, and
// one row twice.
func FuzzTopKReply(f *testing.F) {
	row := func(key sql.Literal, rg, row int32) sql.TopRow { return sql.TopRow{Key: key, RG: rg, Row: row} }
	rows := func(rs ...sql.TopRow) *rpc.Response { return &rpc.Response{TopRows: rs} }
	one := sql.FloatLit(1)
	fuzzReplies(f, rpc.KindTopK,
		"SELECT id, price, comment FROM obj WHERE qty >= 10 ORDER BY price DESC LIMIT 7",
		[]*rpc.Response{
			rows(row(one, 99, 0)),
			rows(row(one, -1, 0)),
			rows(row(one, 0, 1<<30)),
			rows(row(one, 0, -5)),
			rows(row(sql.StringLit("x"), 0, 1)),
			rows(row(sql.FloatLit(math.NaN()), 0, 1)),
			rows(make([]sql.TopRow, 100)...),
			rows(row(sql.FloatLit(9e9), 0, 2), row(sql.FloatLit(9e9), 0, 2)),
		})
}

// FuzzUngroupedAggReply forges the partial states of a pushed ungrouped
// aggregate: a GroupAgg with no key, one per chunk only aggregates read. The
// hand-made seeds: two groups, a non-empty key, a group 2^40 rows beyond the
// selection, string extrema for a numeric column, and a state of another
// aggregate kind.
func FuzzUngroupedAggReply(f *testing.F) {
	groups := func(gs ...sql.GroupPartial) *rpc.Response { return &rpc.Response{Groups: gs} }
	max := sql.AggState{Kind: sql.AggMax, Count: 3, Sum: 1.5, Init: true, MinF: 0.5, MaxF: 1}
	one := func(a sql.AggState) sql.GroupPartial { return sql.GroupPartial{Rows: a.Count, Aggs: []sql.AggState{a}} }
	fuzzReplies(f, rpc.KindGroupAgg,
		"SELECT COUNT(price), MIN(price), MAX(qty) FROM obj WHERE qty < 40",
		[]*rpc.Response{
			groups(one(max), one(max)),
			groups(sql.GroupPartial{Key: []sql.Literal{sql.IntLit(7)}, Rows: 3, Aggs: []sql.AggState{max}}),
			groups(one(sql.AggState{Kind: sql.AggMax, Count: 2400 + 1<<40, Sum: 1, Init: true, MinF: 1, MaxF: 2})),
			groups(one(sql.AggState{Kind: sql.AggMax, Count: 2, Init: true, IsString: true, MinS: "forged", MaxS: "forged"})),
			groups(one(sql.AggState{Kind: sql.AggSum, Count: 3, Sum: 1e300, Init: true})),
		})
}

// projectForger answers like the cluster it wraps, except that while forged
// is set the reply to the pushed projection of the target chunk (by file
// offset) is forged. It keeps the genuine replies it saw, by chunk offset, as
// seeds.
type projectForger struct {
	cluster.Client
	mu      sync.Mutex
	target  uint64
	forged  []byte
	genuine map[uint64][]byte
	seen    int
}

func (c *projectForger) Call(node int, req *rpc.Request) (*rpc.Response, error) {
	resp, err := c.Client.Call(node, req)
	if err != nil {
		return resp, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range req.Subs {
		sub := &req.Subs[i]
		if sub.Kind != rpc.KindProject || i >= len(resp.Subs) || resp.Subs[i].Err != "" {
			continue
		}
		if c.forged == nil {
			c.genuine[sub.Chunk.Meta.Offset] = bytes.Clone(resp.Subs[i].Data)
			continue
		}
		if sub.Chunk.Meta.Offset != c.target {
			continue
		}
		c.seen++
		out := *resp
		out.Subs = append([]rpc.Response(nil), resp.Subs...)
		out.Subs[i].Data = c.forged
		resp = &out
	}
	return resp, nil
}

// replyFormsObject writes four row groups of 800 rows in 300-row pages whose
// columns give every projection reply form: id frame-of-reference ints at a
// constant stride (delta pages of width 0), price decimals with corrections (every third value an ulp off) and escapes
// (about every tenth two ulps off, an infinity in a hundred), qty a
// dictionary of ints too far apart to frame, disc a dictionary of floats no
// scale makes exact, status a dictionary of strings in run-length pages,
// mode a dictionary of strings Snappy-compressed, comment FSST strings,
// noise plain floats, okey ints ascending in steps of 0 or 1 as l_orderkey
// does (delta pages of width 1) and ship ints in random order (offset pages).
// It returns the file and each row group's columns.
func replyFormsObject(t testing.TB) ([]byte, [][]lpq.ColumnData) {
	t.Helper()
	const rowGroups, rows = 4, 800
	names := []string{"id", "price", "qty", "disc", "status", "mode", "comment", "noise", "okey", "ship"}
	types := []lpq.Type{lpq.Int64, lpq.Float64, lpq.Int64, lpq.Float64, lpq.String, lpq.String, lpq.String, lpq.Float64, lpq.Int64, lpq.Int64}
	schema := make([]lpq.Column, len(names))
	for i := range names {
		schema[i] = lpq.Column{Name: names[i], Type: types[i]}
	}
	w := lpq.NewWriter(schema, lpq.WriterOptions{Compress: true, PageRows: 300})
	rng := rand.New(rand.NewSource(5))
	var groups [][]lpq.ColumnData
	okey := int64(1) << 33
	for g := 0; g < rowGroups; g++ {
		cols := make([]lpq.ColumnData, len(types))
		for i, typ := range types {
			cols[i] = lpq.MakeColumn(typ, rows)
		}
		for r := 0; r < rows; r++ {
			cols[0].Ints[r] = int64(g*rows + r)
			price := float64(rng.Intn(100000)) / 100
			switch {
			case r%3 == 0:
				price = math.Nextafter(price, math.Inf(1)) // a correction
			case r%7 == 1:
				price = math.Float64frombits(math.Float64bits(price) + 2) // an escape
			case r%100 == 2:
				price = math.Inf(-1) // an escape
			}
			cols[1].Floats[r] = price
			cols[2].Ints[r] = []int64{3, 1 << 40, -5, 1 << 50}[rng.Intn(4)]
			cols[3].Floats[r] = []float64{math.Pi, math.E, math.Sqrt2}[rng.Intn(3)]
			cols[4].Strings[r] = map[bool]string{true: "F", false: "O"}[r < rows/2]
			cols[5].Strings[r] = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN", "AIR"}[r%5]
			cols[6].Strings[r] = fmt.Sprintf("carefully final %d deposits sleep %d", rng.Intn(1<<20), rng.Intn(1<<10))
			cols[7].Floats[r] = rng.Float64()
			okey += int64(rng.Intn(4) / 3)
			cols[8].Ints[r] = okey
			cols[9].Ints[r] = int64(rng.Intn(2500)) - 1000
		}
		if err := w.WriteRowGroup(cols); err != nil {
			t.Fatal(err)
		}
		groups = append(groups, cols)
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return data, groups
}

// FuzzProjectReply forges the reply of one pushed projection — column col of
// the second row group of replyFormsObject — under a query that pushes every
// projection. A reply that gathers to the selection's count of the column's
// values is taken at its word: the result is the genuine one with those values
// in that row group's window. Any other reply is malformed: that one chunk is
// fetched and projected here, and the result is the genuine one exactly. No
// reply panics the store. The seeds, for each column and so for every reply
// form: the genuine reply, it a byte short, well-formed replies of one value
// too few and one too many, one in an encoding only another type has; and for
// the FSST column nothing at all and a page of 2^40 rows.
func FuzzProjectReply(f *testing.F) {
	const target = 1
	data, groups := replyFormsObject(f)
	footer, err := lpq.ParseFooter(data)
	if err != nil {
		f.Fatal(err)
	}
	chunks := footer.RowGroups[target].Chunks
	wantEnc := []colenc.Encoding{colenc.FOR, colenc.Decimal, colenc.Dict, colenc.Dict, colenc.Dict, colenc.Dict, colenc.FSST, colenc.Plain, colenc.FOR, colenc.FOR}
	for ci, m := range chunks {
		if m.Encoding != wantEnc[ci] {
			f.Fatalf("column %s is %v, want %v: a reply form would go unfuzzed", footer.Columns[ci].Name, m.Encoding, wantEnc[ci])
		}
	}
	if !chunks[5].Compressed {
		f.Fatal("the mode chunk is not Snappy-compressed: no reply from a compressed dictionary would be fuzzed")
	}
	file, err := lpq.Open(data)
	if err != nil {
		f.Fatal(err)
	}
	for ci, deltas := range map[int]bool{0: true, 8: true, 9: false} {
		raw, err := file.ChunkBytes(target, ci)
		if err != nil {
			f.Fatal(err)
		}
		c, err := lpq.OpenChunk(lpq.Int64, chunks[ci], raw)
		if err != nil {
			f.Fatal(err)
		}
		if delta, pages := c.DeltaPages(); delta != map[bool]int{true: pages}[deltas] {
			f.Fatalf("column %s has %d of %d pages deltas: a frame reply form would go unfuzzed", footer.Columns[ci].Name, delta, pages)
		}
	}
	cl := &projectForger{Client: simnet.New(simnet.DefaultConfig()), genuine: map[uint64][]byte{}}
	opts := fusionTestOptions()
	opts.Pushdown = PushdownAlways
	opts.QueryWorkers = 8
	s, err := New(cl, opts)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := s.Put("obj", data); err != nil {
		f.Fatal(err)
	}
	const query = "SELECT id, price, qty, disc, status, mode, comment, noise, okey, ship FROM obj WHERE noise < 0.5"
	want, err := s.Query(query)
	if err != nil {
		f.Fatal(err)
	}
	// The target row group's window of the result: the rows the filter
	// selected in the row groups before it, and in it.
	before, selected := 0, 0
	for rg := 0; rg <= target; rg++ {
		n := 0
		for _, v := range groups[rg][7].Floats {
			if v < 0.5 {
				n++
			}
		}
		if rg < target {
			before += n
		} else {
			selected = n
		}
	}
	pick := func(col uint8) int { return int(col) % len(chunks) }
	for ci, m := range chunks {
		genuine := cl.genuine[m.Offset]
		if genuine == nil {
			f.Fatalf("%q pushed no projection of column %s", query, footer.Columns[ci].Name)
		}
		vals, err := gatherReply(footer.Columns[ci].Type, selected, genuine)
		if err != nil {
			f.Fatal(err)
		}
		fewer, more := lpq.MakeColumn(vals.Type, selected-1), lpq.MakeColumn(vals.Type, selected+1)
		for _, c := range []lpq.ColumnData{fewer, more} {
			copy(c.Ints, vals.Ints)
			copy(c.Floats, vals.Floats)
			copy(c.Strings, vals.Strings)
		}
		for _, seed := range [][]byte{genuine, genuine[:len(genuine)-1], encodeReply(f, fewer), encodeReply(f, more), otherTypeReply(f, vals.Type, selected)} {
			f.Add(uint8(ci), seed)
		}
	}
	f.Add(uint8(6), []byte{})
	f.Add(uint8(6), binary.AppendUvarint([]byte{byte(colenc.Plain), 1}, 1<<40))
	render := func(res *Result) string {
		return fmt.Sprint(res.Rows, res.Columns, res.Data, res.AggLabels, res.AggValues)
	}
	f.Fuzz(func(t *testing.T, col uint8, b []byte) {
		ci := pick(col)
		cl.mu.Lock()
		cl.target, cl.forged = chunks[ci].Offset, append([]byte{}, b...) // a nil reply is forged too
		cl.mu.Unlock()
		res, err := s.Query(query)
		cl.mu.Lock()
		cl.forged = nil
		cl.mu.Unlock()
		if err != nil {
			t.Fatalf("query failed over a forged projection: %v", err)
		}
		expect, taken := want, false
		if vals, err := gatherReply(footer.Columns[ci].Type, selected, b); err == nil {
			// Taken at its word: the genuine result, those values in the window.
			taken = true
			shown := *want
			shown.Data = append([]lpq.ColumnData(nil), want.Data...)
			col, end := want.Data[ci], before+selected
			col.Ints = slices.Concat(col.Ints[:min(before, len(col.Ints))], vals.Ints, col.Ints[min(end, len(col.Ints)):])
			col.Floats = slices.Concat(col.Floats[:min(before, len(col.Floats))], vals.Floats, col.Floats[min(end, len(col.Floats)):])
			col.Strings = slices.Concat(col.Strings[:min(before, len(col.Strings))], vals.Strings, col.Strings[min(end, len(col.Strings)):])
			shown.Data[ci] = col
			expect = &shown
		}
		if got := render(res); got != render(expect) {
			t.Fatalf("%s reply taken=%v: result differs:\n got %.300s\nwant %.300s", footer.Columns[ci].Name, taken, got, render(expect))
		}
		if wantOff := map[bool]int{true: 0, false: 1}[taken]; res.Stats.PushdownOff != wantOff {
			t.Fatalf("%s reply taken=%v, but %d chunks fetched", footer.Columns[ci].Name, taken, res.Stats.PushdownOff)
		}
	})
}
