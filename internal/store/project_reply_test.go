package store

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/colenc"
	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/rpc"
)

// projectRewriter sits between a store and its cluster and rewrites the
// payload of every pushed KindProject reply it sees.
type projectRewriter struct {
	cluster.Client
	rewrite func(lpq.ColumnData) []byte
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
		col, err := cluster.DecodePlain(lpq.ColumnData{Type: req.Subs[i].Chunk.Type}, out.Subs[i].Data)
		if err != nil {
			return nil, err
		}
		out.Subs[i].Data = c.rewrite(col)
		c.seen.Add(1)
	}
	return &out, nil
}

// plainReply encodes a projection reply: [type byte][uvarint count][values].
func plainReply(t lpq.Type, col lpq.ColumnData) []byte {
	out := binary.AppendUvarint([]byte{byte(t)}, uint64(col.Len()))
	switch col.Type {
	case lpq.Int64:
		return colenc.PutInt64s(out, col.Ints)
	case lpq.Float64:
		return colenc.PutFloat64s(out, col.Floats)
	default:
		return colenc.PutStrings(out, col.Strings)
	}
}

// TestMalformedProjectReplyFallsBack: a pushed projection's reply must hold
// values of the chunk's type, one per selected row. One value short, one too
// many, or another type's byte in front — each decodes without an error, and
// taken at its word would leave the result column ragged or its neighbour's
// window overwritten — is malformed: the chunk is fetched instead, as for a
// reply that does not decode, and the result equals the reference. The query
// projects ints, floats, dictionary and plain strings over four row groups and
// folds one projected column into an aggregate as well, from its window.
func TestMalformedProjectReplyFallsBack(t *testing.T) {
	data, _, _ := makeObject(t, 4, 300, 23)
	const query = "SELECT id, price, flag, comment, SUM(price) FROM obj WHERE qty < 25"
	opts := fusionTestOptions()
	opts.Pushdown = PushdownAlways
	render := func(res *Result) string {
		return fmt.Sprint(res.Rows, res.Columns, res.Data, res.AggLabels, res.AggValues)
	}
	rewrites := map[string]func(lpq.ColumnData) []byte{
		"intact": func(col lpq.ColumnData) []byte { return plainReply(col.Type, col) },
		"one value too few": func(col lpq.ColumnData) []byte {
			n := col.Len() - 1
			col.Ints, col.Floats, col.Strings = col.Ints[:min(n, len(col.Ints))], col.Floats[:min(n, len(col.Floats))], col.Strings[:min(n, len(col.Strings))]
			return plainReply(col.Type, col)
		},
		"one value too many": func(col lpq.ColumnData) []byte {
			switch col.Type {
			case lpq.Int64:
				col.Ints = append(col.Ints[:len(col.Ints):len(col.Ints)], -1)
			case lpq.Float64:
				col.Floats = append(col.Floats[:len(col.Floats):len(col.Floats)], -1)
			default:
				col.Strings = append(col.Strings[:len(col.Strings):len(col.Strings)], "extra")
			}
			return plainReply(col.Type, col)
		},
		// Ints and floats are both eight bytes a value, so the body still
		// parses under the other's type byte.
		"wrong type byte": func(col lpq.ColumnData) []byte { return plainReply((col.Type+1)%3, col) },
	}
	var want string
	for _, name := range []string{"intact", "one value too few", "one value too many", "wrong type byte"} {
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
