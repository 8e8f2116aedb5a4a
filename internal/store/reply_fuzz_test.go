package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
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

// projectForger answers like the cluster it wraps, except that the reply to
// the pushed projection of one chunk (by file offset) carries forged as its
// values while forged is set. It keeps the genuine reply's values, as a seed.
type projectForger struct {
	cluster.Client
	target  uint64
	mu      sync.Mutex
	forged  []byte
	genuine []byte
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
		if sub.Kind != rpc.KindProject || sub.Chunk.Meta.Offset != c.target || i >= len(resp.Subs) || resp.Subs[i].Err != "" {
			continue
		}
		c.seen++
		if c.forged == nil {
			c.genuine = resp.Subs[i].Data
			continue
		}
		out := *resp
		out.Subs = append([]rpc.Response(nil), resp.Subs...)
		out.Subs[i].Data = c.forged
		resp = &out
	}
	return resp, nil
}

// FuzzProjectReply forges the values of one pushed projection — the comment
// column of the second row group, an FSST chunk — under a query that pushes
// every projection. A reply that decodes as the selection's count of strings
// is taken at its word: the result is the genuine one with those values in
// that row group's window. Any other reply is malformed: that one chunk is
// fetched and projected here, and the result is the genuine one exactly. No
// reply panics the store. The hand-made seeds: one value too few and one too
// many, another type's byte in front, a length overrunning the reply, a count
// of 2^40, and nothing at all.
func FuzzProjectReply(f *testing.F) {
	const rowGroups, rowsPer, target = 4, 800, 1
	data, _, groups := makeObject(f, rowGroups, rowsPer, 123)
	footer, err := lpq.ParseFooter(data)
	if err != nil {
		f.Fatal(err)
	}
	comment := footer.ColumnIndex("comment")
	if enc := footer.RowGroups[target].Chunks[comment].Encoding; enc != colenc.FSST {
		f.Fatalf("the comment chunk is %v: the target would not fuzz an FSST projection", enc)
	}
	cl := &projectForger{Client: simnet.New(simnet.DefaultConfig()), target: footer.RowGroups[target].Chunks[comment].Offset}
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
	const query = "SELECT id, price, comment FROM obj WHERE qty < 25"
	want, err := s.Query(query)
	if err != nil || cl.seen == 0 {
		f.Fatalf("%q pushed no projection of the target chunk (%v): the target would fuzz nothing", query, err)
	}
	// The target row group's window of the result: the rows the filter
	// selected in the row groups before it, and in it.
	before, selected := 0, 0
	for rg := 0; rg <= target; rg++ {
		n := 0
		for _, q := range groups[rg][1].Ints {
			if q < 25 {
				n++
			}
		}
		if rg < target {
			before += n
		} else {
			selected = n
		}
	}
	reply := func(count uint64, vals ...string) []byte {
		return colenc.PutStrings(binary.AppendUvarint([]byte{byte(lpq.String)}, count), vals)
	}
	some := make([]string, selected)
	for i := range some {
		some[i] = fmt.Sprintf("forged %d", i)
	}
	f.Add(cl.genuine)
	f.Add(reply(uint64(selected), some...))
	f.Add(reply(uint64(selected-1), some[1:]...))
	f.Add(reply(uint64(selected+1), append(some, "extra")...))
	f.Add(append([]byte{byte(lpq.Int64)}, cl.genuine[1:]...))
	f.Add(append(reply(uint64(selected), some[1:]...), 40, 'x'))
	f.Add(reply(1<<40, some...))
	f.Add([]byte{})
	render := func(res *Result) string {
		return fmt.Sprint(res.Rows, res.Columns, res.Data, res.AggLabels, res.AggValues)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		cl.mu.Lock()
		cl.forged = append([]byte{}, b...) // a nil reply is forged too
		cl.mu.Unlock()
		res, err := s.Query(query)
		cl.mu.Lock()
		cl.forged = nil
		cl.mu.Unlock()
		if err != nil {
			t.Fatalf("query failed over a forged projection: %v", err)
		}
		expect, taken := want, false
		if vals, err := cluster.DecodePlain(lpq.ColumnData{Type: lpq.String}, b); err == nil && vals.Len() == selected {
			// Taken at its word: the genuine result, those values in the window.
			taken = true
			shown := *want
			shown.Data = append([]lpq.ColumnData(nil), want.Data...)
			ci := slices.Index(want.Columns, "comment")
			col := append([]string(nil), want.Data[ci].Strings...)
			copy(col[before:before+selected], vals.Strings)
			shown.Data[ci] = lpq.StringColumn(col)
			expect = &shown
		}
		if got := render(res); got != render(expect) {
			t.Fatalf("reply taken=%v: result differs:\n got %.300s\nwant %.300s", taken, got, render(expect))
		}
		if wantOff := map[bool]int{true: 0, false: 1}[taken]; res.Stats.PushdownOff != wantOff {
			t.Fatalf("reply taken=%v, but %d chunks fetched", taken, res.Stats.PushdownOff)
		}
	})
}
