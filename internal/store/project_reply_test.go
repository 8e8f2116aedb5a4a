package store

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"github.com/fusionstore/fusion/internal/bitmap"
	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/colenc"
	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/rpc"
)

// projectRewriter sits between a store and its cluster and rewrites the
// payload of every pushed KindProject reply it sees, given the reply and the
// values it gathers to.
type projectRewriter struct {
	cluster.Client
	rewrite func(reply []byte, col lpq.ColumnData) []byte
	seen    atomic.Int64 // frames go out concurrently
}

func (c *projectRewriter) Call(node int, req *rpc.Request) (*rpc.Response, error) {
	resp, err := c.Client.Call(node, req)
	if err != nil || c.rewrite == nil {
		return resp, err
	}
	out := *resp
	out.Subs = append([]rpc.Response(nil), resp.Subs...)
	for i := range out.Subs {
		if req.Subs[i].Kind != rpc.KindProject || out.Subs[i].Err != "" {
			continue
		}
		col, err := gatherReply(req.Subs[i].Chunk.Type, out.Subs[i].Matches, out.Subs[i].Data)
		if err != nil {
			return nil, err
		}
		out.Subs[i].Data = c.rewrite(out.Subs[i].Data, col)
		c.seen.Add(1)
	}
	return &out, nil
}

// gatherReply opens a projection reply of rows rows of type t and gathers it,
// as the coordinator does.
func gatherReply(t lpq.Type, rows int, reply []byte) (lpq.ColumnData, error) {
	ch, err := lpq.OpenReply(t, rows, reply)
	if err != nil {
		return lpq.ColumnData{}, err
	}
	return ch.Gather(nil)
}

// encodeReply is the projection reply of every row of col, written as the
// default writer writes the column: a well-formed reply of any values.
func encodeReply(t testing.TB, col lpq.ColumnData) []byte {
	t.Helper()
	w := lpq.NewWriter([]lpq.Column{{Name: "v", Type: col.Type}}, lpq.DefaultWriterOptions())
	if err := w.WriteRowGroup([]lpq.ColumnData{col}); err != nil {
		t.Fatal(err)
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	f, err := lpq.Open(data)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := f.ChunkBytes(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := lpq.OpenChunk(col.Type, f.Footer().RowGroups[0].Chunks[0], raw)
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Release()
	reply, err := ch.AppendSelected(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return reply
}

// otherTypeReply is a well-formed reply of n values of the type after t, in an
// encoding only that type has: frame-of-reference ints, decimals or FSST
// strings. No reply in it opens as a t column.
func otherTypeReply(tb testing.TB, t lpq.Type, n int) []byte {
	tb.Helper()
	col := lpq.MakeColumn((t+1)%3, n)
	for i := 0; i < n; i++ {
		switch col.Type {
		case lpq.Int64:
			col.Ints[i] = int64(i) * 7919
		case lpq.Float64:
			col.Floats[i] = float64(i) / 100
		default:
			col.Strings[i] = fmt.Sprintf("forged value %d", i)
		}
	}
	reply := encodeReply(tb, col)
	if enc := colenc.Encoding(reply[0]); enc != colenc.FOR && enc != colenc.Decimal && enc != colenc.FSST {
		tb.Fatalf("%d %v values replied as %v: the forgery would open as any numeric type", n, col.Type, enc)
	}
	return reply
}

// TestMalformedProjectReplyFallsBack: a pushed projection's reply must be a
// chunk of the column's type holding one row per selected row. One value
// short, one too many, a byte short, or in an encoding only another type has —
// each well-formed but the last two, and taken at its word the first two would
// leave the result column ragged or its neighbour's window overwritten — is
// malformed: the chunk is fetched instead, and the result equals the
// reference. The query projects ints, floats, dictionary and FSST strings over
// four row groups and folds one projected column into an aggregate as well,
// from its window.
func TestMalformedProjectReplyFallsBack(t *testing.T) {
	data, _, _ := makeObject(t, 4, 300, 23)
	const query = "SELECT id, price, flag, comment, SUM(price) FROM obj WHERE qty < 25"
	opts := fusionTestOptions()
	opts.Pushdown = PushdownAlways
	render := func(res *Result) string {
		return fmt.Sprint(res.Rows, res.Columns, res.Data, res.AggLabels, res.AggValues)
	}
	rewrites := map[string]func([]byte, lpq.ColumnData) []byte{
		"intact": func(reply []byte, _ lpq.ColumnData) []byte { return reply },
		"one value too few": func(_ []byte, col lpq.ColumnData) []byte {
			n := col.Len() - 1
			col.Ints, col.Floats, col.Strings = col.Ints[:min(n, len(col.Ints))], col.Floats[:min(n, len(col.Floats))], col.Strings[:min(n, len(col.Strings))]
			return encodeReply(t, col)
		},
		"one value too many": func(_ []byte, col lpq.ColumnData) []byte {
			switch col.Type {
			case lpq.Int64:
				col.Ints = append(col.Ints[:len(col.Ints):len(col.Ints)], -1)
			case lpq.Float64:
				col.Floats = append(col.Floats[:len(col.Floats):len(col.Floats)], -1)
			default:
				col.Strings = append(col.Strings[:len(col.Strings):len(col.Strings)], "extra")
			}
			return encodeReply(t, col)
		},
		"a byte short":            func(reply []byte, _ lpq.ColumnData) []byte { return reply[:len(reply)-1] },
		"another type's encoding": func(_ []byte, col lpq.ColumnData) []byte { return otherTypeReply(t, col.Type, col.Len()) },
	}
	var want string
	for _, name := range []string{"intact", "one value too few", "one value too many", "a byte short", "another type's encoding"} {
		t.Run(name, func(t *testing.T) {
			_, cl := newSimStore(t, opts)
			tap := &projectRewriter{Client: cl}
			s, err := New(tap, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Put("obj", data); err != nil {
				t.Fatal(err)
			}
			tap.rewrite = rewrites[name]
			res, err := s.Query(query)
			if err != nil {
				t.Fatal(err)
			}
			seen := int(tap.seen.Load())
			if seen == 0 {
				t.Fatal("no projection was pushed: the test proves nothing")
			}
			if name == "intact" {
				want = render(res)
				if res.Stats.PushdownOn == 0 || res.Stats.PushdownOff != 0 {
					t.Fatalf("intact replies: %d chunks taken from the push, %d fetched", res.Stats.PushdownOn, res.Stats.PushdownOff)
				}
				return
			}
			if got := render(res); got != want {
				t.Fatalf("result differs from the one built from intact replies:\n got %.200s\nwant %.200s", got, want)
			}
			if res.Stats.PushdownOn != 0 || res.Stats.PushdownOff != seen {
				t.Fatalf("%d malformed replies, but %d chunks taken from the push and %d fetched", seen, res.Stats.PushdownOn, res.Stats.PushdownOff)
			}
		})
	}
}

// TestPushProjectionRule is pushProjection's rule, case by case: adaptive
// pushes iff the reply estimate + the selection's bytes < the stored chunk,
// the estimate being the selected share of the stored bytes, or of the plain
// bytes for a Snappy-compressed chunk, and for a frame chunk of sorted keys
// (l_orderkey's shape: 1-bit delta pages) as many bits a selected row as a
// step over the selection's widest gap takes; Always and Never mean what they
// say; and an object laid out in fixed blocks, whose chunks no node holds
// whole, never pushes.
func TestPushProjectionRule(t *testing.T) {
	fsstComment := lpq.ChunkMeta{Size: 3_623_796, RawSize: 5_332_604, Encoding: colenc.FSST}
	snappyDict := lpq.ChunkMeta{Size: 30_000, RawSize: 480_000, Encoding: colenc.Dict, Compressed: true}
	decimal := lpq.ChunkMeta{Size: 1_000, RawSize: 8_000, Encoding: colenc.Decimal}
	orderKey := lpq.ChunkMeta{Size: 7_547, RawSize: 480_000, NumValues: 60_000, Encoding: colenc.FOR,
		Stats: lpq.Stats{Valid: true, MinI: 1, MaxI: 15_000}}
	shipDate := lpq.ChunkMeta{Size: 90_027, RawSize: 480_000, NumValues: 60_000, Encoding: colenc.FOR,
		Stats: lpq.Stats{Valid: true, MinI: 8_036, MaxI: 10_561}}
	fac, fixed := &ObjectMeta{Mode: LayoutFAC}, &ObjectMeta{Mode: LayoutFixed}
	// every selects one row in each run of k; random one row in k of 60,000.
	every := func(k int) *bitmap.Bitmap {
		b := bitmap.New(10_000)
		for i := 0; i < b.Len(); i += k {
			b.Set(i)
		}
		return b
	}
	random := func(k int) *bitmap.Bitmap {
		rng, b := rand.New(rand.NewSource(int64(k))), bitmap.New(60_000)
		for i := 0; i < b.Len(); i++ {
			if rng.Intn(k) == 0 {
				b.Set(i)
			}
		}
		return b
	}
	half, most, all := bitmap.New(60_000), every(100), bitmap.NewFull(60_000)
	half.SetRange(0, 30_000)
	most.Not()
	cases := []struct {
		name   string
		policy PushdownPolicy
		meta   *ObjectMeta
		ch     lpq.ChunkMeta
		sel    *bitmap.Bitmap
		wire   int
		push   bool
	}{
		{"FSST at 50% pushes", PushdownAdaptive, fac, fsstComment, every(2), 75_080, true},
		{"FSST at 99% pushes no more", PushdownAdaptive, fac, fsstComment, most, 75_080, false},
		{"a full selection never pushes", PushdownAdaptive, fac, fsstComment, all, 1, false},
		{"Snappy chunk at 5%: sel × plain bytes fits", PushdownAdaptive, fac, snappyDict, every(20), 100, true},
		{"Snappy chunk at 7%: sel × plain bytes does not", PushdownAdaptive, fac, snappyDict, every(14), 100, false},
		{"selection bytes tip it: under", PushdownAdaptive, fac, decimal, every(2), 499, true},
		{"selection bytes tip it: over", PushdownAdaptive, fac, decimal, every(2), 500, false},
		{"sorted keys at 1% push", PushdownAdaptive, fac, orderKey, random(100), len(random(100).Marshal()), true},
		{"sorted keys at 10% are fetched", PushdownAdaptive, fac, orderKey, random(10), len(random(10).Marshal()), false},
		{"sorted keys, a contiguous half: sel × Size fits", PushdownAdaptive, fac, orderKey, half, len(half.Marshal()), true},
		{"offset frame at 10%: sel × Size", PushdownAdaptive, fac, shipDate, random(10), len(random(10).Marshal()), true},
		{"fixed blocks never push", PushdownAdaptive, fixed, fsstComment, every(100), 10, false},
		{"Always pushes a full selection", PushdownAlways, fac, fsstComment, all, 1, true},
		{"Always pushes a Snappy chunk", PushdownAlways, fac, snappyDict, every(2), 100, true},
		{"Always, fixed blocks: no", PushdownAlways, fixed, fsstComment, every(2), 10, false},
		{"Never pushes nothing", PushdownNever, fac, fsstComment, every(100), 10, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := &Store{opts: Options{Pushdown: c.policy}}
			if got := s.pushProjection(c.meta, c.ch, c.sel, func() int { return c.wire }); got != c.push {
				t.Fatalf("pushed %v, want %v (reply estimate %.0f B, selection %d B, chunk %d B)",
					got, c.push, replyEstimate(c.ch, c.sel), c.wire, c.ch.Size)
			}
		})
	}
}

// TestAdaptiveFetchesSparseSortedKeys runs the planner's frame-chunk price
// against the replies themselves, over two 60,000-row row groups of
// l_orderkey-shaped keys (ascending by 0 or 1 a row, 1-bit delta pages):
// 1% of the rows, scattered, reply in fewer bytes than the chunk, and 10%
// reply wider per row than the chunk stores them, so that reply and the
// selection outweigh it. Adaptive pushdown pushes the first and fetches the
// second, and moves no more bytes than pushing every projection does.
func TestAdaptiveFetchesSparseSortedKeys(t *testing.T) {
	const rowGroups, rows = 2, 60_000
	schema := []lpq.Column{{Name: "okey", Type: lpq.Int64}, {Name: "noise", Type: lpq.Float64}}
	w := lpq.NewWriter(schema, lpq.DefaultWriterOptions())
	rng := rand.New(rand.NewSource(3))
	key := int64(1)
	for g := 0; g < rowGroups; g++ {
		cols := []lpq.ColumnData{lpq.MakeColumn(lpq.Int64, rows), lpq.MakeColumn(lpq.Float64, rows)}
		for r := 0; r < rows; r++ {
			key += int64(rng.Intn(4) / 3)
			cols[0].Ints[r], cols[1].Floats[r] = key, rng.Float64()
		}
		if err := w.WriteRowGroup(cols); err != nil {
			t.Fatal(err)
		}
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	stores := map[PushdownPolicy]*Store{}
	for _, policy := range []PushdownPolicy{PushdownAdaptive, PushdownAlways} {
		opts := fusionTestOptions()
		opts.Pushdown = policy
		s, _ := newSimStore(t, opts)
		if _, err := s.Put("obj", data); err != nil {
			t.Fatal(err)
		}
		stores[policy] = s
	}
	for _, c := range []struct {
		where  string
		pushed bool
	}{{"noise < 0.01", true}, {"noise < 0.1", false}} {
		query := "SELECT okey FROM obj WHERE " + c.where
		adaptive, err := stores[PushdownAdaptive].Query(query)
		if err != nil {
			t.Fatal(err)
		}
		always, err := stores[PushdownAlways].Query(query)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(adaptive.Data) != fmt.Sprint(always.Data) {
			t.Fatalf("%s: adaptive and always-push results differ", c.where)
		}
		on, off := adaptive.Stats.PushdownOn, adaptive.Stats.PushdownOff
		if c.pushed && (on != rowGroups || off != 0) || !c.pushed && (on != 0 || off != rowGroups) {
			t.Errorf("%s: %d projections pushed and %d fetched, want the %d chunks all %s", c.where, on, off, rowGroups,
				map[bool]string{true: "pushed", false: "fetched"}[c.pushed])
		}
		if a, b := adaptive.Stats.TrafficBytes, always.Stats.TrafficBytes; c.pushed && a != b || !c.pushed && a >= b {
			t.Errorf("%s: adaptive moved %d B, pushing every projection %d B", c.where, a, b)
		}
	}
}

// TestProjectReplyEquivalence: every projection pushed, or none, the query
// returns the same table — over a column of every reply form
// (replyFormsObject: frame-of-reference offsets and deltas, decimal with
// corrections and escapes, dictionaries of ints, floats and strings in
// run-length and Snappy-compressed chunks, FSST and plain) and selections of
// no row, one row, a sparse few, a dense run across a page boundary and every
// row. Where a row is selected, the pushed run took every projection from a
// reply.
func TestProjectReplyEquivalence(t *testing.T) {
	data, _ := replyFormsObject(t)
	const cols = "id, price, qty, disc, status, mode, comment, noise, okey, ship"
	render := func(res *Result) string {
		return fmt.Sprint(res.Rows, res.Columns, res.Data, res.AggLabels, res.AggValues)
	}
	stores := map[PushdownPolicy]*Store{}
	for _, policy := range []PushdownPolicy{PushdownAlways, PushdownNever} {
		opts := fusionTestOptions()
		opts.Pushdown, opts.QueryWorkers = policy, 8
		s, _ := newSimStore(t, opts)
		if _, err := s.Put("obj", data); err != nil {
			t.Fatal(err)
		}
		stores[policy] = s
	}
	for _, c := range []struct {
		name, where string
		rows        int // -1: not known up front
	}{
		{"none", "id < 0", 0},
		{"one row", "id = 1234", 1},
		{"sparse", "noise < 0.01", -1},
		{"dense run across a page boundary", "id >= 250 AND id < 700", 450},
		{"all", "id >= 0", 3200},
	} {
		t.Run(c.name, func(t *testing.T) {
			query := "SELECT " + cols + " FROM obj WHERE " + c.where
			pushed, err := stores[PushdownAlways].Query(query)
			if err != nil {
				t.Fatal(err)
			}
			fetched, err := stores[PushdownNever].Query(query)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := render(pushed), render(fetched); got != want {
				t.Fatalf("pushed projections differ from fetched chunks:\n got %.300s\nwant %.300s", got, want)
			}
			if c.rows >= 0 && pushed.Rows != c.rows {
				t.Fatalf("%d rows, want %d", pushed.Rows, c.rows)
			}
			if pushed.Rows > 0 && (pushed.Stats.PushdownOn == 0 || pushed.Stats.PushdownOff != 0) {
				t.Fatalf("%d projections taken from replies, %d fetched", pushed.Stats.PushdownOn, pushed.Stats.PushdownOff)
			}
		})
	}
}
