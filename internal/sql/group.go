package sql

import (
	"encoding/binary"
	"errors"
	"math"
	"sort"
)

// ErrTooManyGroups reports that a GROUP BY exceeded the group-cardinality
// cap. A storage node returning it makes the coordinator fall back to
// coordinator-side execution for that row group (the partial states would
// be larger than the raw chunks — exactly when pushdown loses).
var ErrTooManyGroups = errors.New("sql: group cardinality exceeds limit")

// GroupPartial is the partial aggregate state of one group: its key
// literals, the number of contributing rows, and one AggState per
// aggregate. AVG is never pre-divided — it travels as (sum, count) inside
// its AggState and is divided only once, at final result rendering.
type GroupPartial struct {
	Key  []Literal
	Rows int64
	Aggs []AggState
}

// GroupTable accumulates per-group partial aggregates. Storage nodes and
// the coordinator share this one implementation, so a group's state is
// bit-identical whether it was computed remotely, locally, or merged from
// any mix of the two. A group is known by a dense id, its index in groups,
// which the kernels fold into per-group arrays by.
type GroupTable struct {
	kinds     []AggKind
	maxGroups int
	ids       map[string]int32 // a group's key bytes (appendKeyLit) → its id
	groups    []GroupPartial
}

// NewGroupTable returns a table accumulating one AggState per kind for
// each group. maxGroups caps cardinality (<=0 means unbounded).
func NewGroupTable(kinds []AggKind, maxGroups int) *GroupTable {
	return &GroupTable{
		kinds:     append([]AggKind(nil), kinds...),
		maxGroups: maxGroups,
		ids:       make(map[string]int32),
	}
}

// Len returns the number of groups seen so far.
func (g *GroupTable) Len() int { return len(g.groups) }

// add makes an empty partial state for a new group with the given key bytes
// and literals, and returns its id; ErrTooManyGroups when the cap is reached.
func (g *GroupTable) add(keyBytes []byte, key []Literal) (int32, error) {
	if g.maxGroups > 0 && len(g.groups) >= g.maxGroups {
		return 0, ErrTooManyGroups
	}
	gp := GroupPartial{Key: key, Aggs: make([]AggState, len(g.kinds))}
	for ai, kind := range g.kinds {
		gp.Aggs[ai].Kind = kind
	}
	id := int32(len(g.groups))
	g.groups = append(g.groups, gp)
	g.ids[string(keyBytes)] = id
	return id, nil
}

// Merge folds partial states (from a node, another table, or the wire)
// into the table, in the order given. Merging the same partials in the
// same order always produces bit-identical state.
func (g *GroupTable) Merge(partials []GroupPartial) error {
	var keyBuf []byte
	for pi := range partials {
		p := &partials[pi]
		if len(p.Aggs) != len(g.kinds) {
			return errors.New("sql: GroupTable.Merge: aggregate arity mismatch")
		}
		keyBuf = appendKeyLits(keyBuf[:0], p.Key)
		id, ok := g.ids[string(keyBuf)]
		if !ok {
			var err error
			if id, err = g.add(keyBuf, append([]Literal(nil), p.Key...)); err != nil {
				return err
			}
		}
		gp := &g.groups[id]
		gp.Rows += p.Rows
		for ai := range g.kinds {
			gp.Aggs[ai].Merge(&p.Aggs[ai])
		}
	}
	return nil
}

// Sorted returns the groups ordered by key (CompareLiterals elementwise) —
// the deterministic group ordering every result and every wire payload
// uses.
func (g *GroupTable) Sorted() []GroupPartial {
	out := append([]GroupPartial(nil), g.groups...)
	sort.Slice(out, func(i, j int) bool {
		if c := CompareKeys(out[i].Key, out[j].Key); c != 0 {
			return c < 0
		}
		// Groups are told apart by bit pattern (appendKeyLit), values ordered
		// numerically: +0 and −0 are two groups that compare equal, as are
		// NaNs of different payloads. The bits order those, so the order is
		// total and does not depend on the order groups were met in.
		for k := range out[i].Key {
			if a, b := math.Float64bits(out[i].Key[k].F), math.Float64bits(out[j].Key[k].F); a != b {
				return a < b
			}
		}
		return false
	})
	return out
}

// CompareKeys orders two key tuples elementwise.
func CompareKeys(a, b []Literal) int {
	for i := range a {
		if i >= len(b) {
			return 1
		}
		if c := CompareLiterals(a[i], b[i]); c != 0 {
			return c
		}
		// Same value, different kind (can only happen across schema
		// changes): order by kind for totality.
		if a[i].Kind != b[i].Kind {
			if a[i].Kind < b[i].Kind {
				return -1
			}
			return 1
		}
	}
	if len(a) < len(b) {
		return -1
	}
	return 0
}

// appendKeyLits appends a canonical byte encoding of a key tuple, so distinct
// tuples never collide.
func appendKeyLits(dst []byte, key []Literal) []byte {
	for _, l := range key {
		dst = appendKeyLit(dst, l)
	}
	return dst
}

// appendKeyLit appends one key column: a type tag, then a fixed or
// length-prefixed payload.
func appendKeyLit(dst []byte, l Literal) []byte {
	switch l.Kind {
	case LitInt:
		return binary.LittleEndian.AppendUint64(append(dst, 'i'), uint64(l.I))
	case LitFloat:
		return binary.LittleEndian.AppendUint64(append(dst, 'f'), math.Float64bits(l.F))
	default:
		return append(binary.AppendUvarint(append(dst, 's'), uint64(len(l.S))), l.S...)
	}
}

// TopRow is one candidate in a top-k order: its sort key and its global
// (row group, row) position — the deterministic tie-break, so equal keys
// always resolve to the same winners regardless of merge order.
type TopRow struct {
	Key Literal
	RG  int32
	Row int32
}

// TopK accumulates the k smallest (or largest, when desc) rows by key.
// Nodes run one per row group and return their local top-k; the
// coordinator merges them with the same structure, giving a bounded k-way
// merge whose result is independent of arrival order. It holds at most k
// rows: once full they form a heap whose root is the row that places last,
// so a candidate costs one comparison with the root and, only if it places,
// a sift.
type TopK struct {
	k    int
	desc bool
	rows []TopRow // a heap under less, last-placed row at the root, once full

	scanned int // rows PushChunk decoded and compared, for the tests
}

// NewTopK returns an accumulator for the top k rows. k <= 0 keeps
// everything (used for ORDER BY without LIMIT).
func NewTopK(k int, desc bool) *TopK {
	return &TopK{k: k, desc: desc}
}

// full reports whether k rows are held, so that a new row must displace one.
func (t *TopK) full() bool { return t.k > 0 && len(t.rows) == t.k }

// Push adds one candidate row.
func (t *TopK) Push(key Literal, rg, row int32) {
	r := TopRow{Key: key, RG: rg, Row: row}
	if !t.full() {
		t.rows = append(t.rows, r)
		if t.full() {
			for i := t.k/2 - 1; i >= 0; i-- {
				t.siftDown(i)
			}
		}
		return
	}
	if t.less(r, t.rows[0]) {
		t.rows[0] = r
		t.siftDown(0)
	}
}

// siftDown restores the heap below position i.
func (t *TopK) siftDown(i int) {
	for {
		c := 2*i + 1
		if c >= len(t.rows) {
			return
		}
		if c+1 < len(t.rows) && t.less(t.rows[c], t.rows[c+1]) {
			c++
		}
		if !t.less(t.rows[i], t.rows[c]) {
			return
		}
		t.rows[i], t.rows[c] = t.rows[c], t.rows[i]
		i = c
	}
}

// Merge adds candidates from another accumulator's Rows.
func (t *TopK) Merge(rows []TopRow) {
	for _, r := range rows {
		t.Push(r.Key, r.RG, r.Row)
	}
}

// Rows returns the top-k so far, fully ordered by (key, rg, row).
func (t *TopK) Rows() []TopRow {
	out := t.rows
	if t.k > 0 {
		out = append([]TopRow(nil), t.rows...) // t.rows keeps its heap order
	}
	sort.Slice(out, func(i, j int) bool { return t.less(out[i], out[j]) })
	return out
}

func (t *TopK) less(a, b TopRow) bool {
	c := CompareLiterals(a.Key, b.Key)
	if c != 0 {
		if t.desc {
			return c > 0
		}
		return c < 0
	}
	if a.RG != b.RG {
		return a.RG < b.RG
	}
	return a.Row < b.Row
}
