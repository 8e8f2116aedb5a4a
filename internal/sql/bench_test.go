package sql

import (
	"math/rand"
	"testing"

	"github.com/fusionstore/fusion/internal/bitmap"
	"github.com/fusionstore/fusion/internal/colenc"
	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/tpch"
)

// benchRows is a lineitem row group at the repository benchmark's scale.
const benchRows = 60000

// benchRowGroup generates and opens the lineitem columns the selective scans
// compute on, under the encodings the default writer gives them: l_shipdate
// (2,526 dates: a frame of reference, 12-bit offsets), l_returnflag (3
// strings: dictionary, 2-bit codes), l_extendedprice (cents, a third of them
// an ulp off: decimal pages whose codes carry the ulp), l_orderkey (ascending
// with repeats: a frame of reference), l_discount (11 values: dictionary,
// 4-bit codes), l_quantity (50 values: dictionary, 6-bit codes) and l_partkey
// (200,000 keys: a frame of reference, 18-bit offsets).
func benchRowGroup(tb testing.TB) (chunks []*lpq.Chunk, cols []lpq.ColumnData) {
	rng := rand.New(rand.NewSource(7))
	ship, order := make([]int64, benchRows), make([]int64, benchRows)
	price := make([]float64, benchRows)
	flag := make([]string, benchRows)
	for i := range ship {
		ship[i] = rng.Int63n(2526)
		order[i] = int64(i / 4)
		price[i] = float64(1+rng.Intn(50)) * (900 + float64(rng.Intn(200000))/100)
		flag[i] = []string{"A", "N", "R"}[rng.Intn(3)]
	}
	rng = rand.New(rand.NewSource(8)) // the columns above stay as they were
	discount, qty, part := make([]float64, benchRows), make([]int64, benchRows), make([]int64, benchRows)
	for i := range discount {
		discount[i] = float64(rng.Intn(11)) / 100
		qty[i] = 1 + rng.Int63n(50)
		part[i] = 1 + rng.Int63n(200000)
	}
	cols = []lpq.ColumnData{lpq.IntColumn(ship), lpq.StringColumn(flag), lpq.FloatColumn(price), lpq.IntColumn(order),
		lpq.FloatColumn(discount), lpq.IntColumn(qty), lpq.IntColumn(part)}
	chunks = openColumns(tb, lpq.DefaultWriterOptions(), cols)
	tb.Cleanup(func() {
		for _, ch := range chunks {
			ch.Release()
		}
	})
	return chunks, cols
}

const (
	benchShip = iota
	benchFlag
	benchPrice
	benchOrder
	benchDiscount
	benchQuantity
	benchPart
)

var benchSink int

// BenchmarkKernelFilter times the filter over an opened chunk per encoding
// against EvalCompare over the decoded column (decoding not counted, so the
// reference rows understate what a node paid): each branch of the packed-page
// reader — a frame of reference at 12 and at 18 bits, dictionary codes through
// the byte table at 2 and 4 bits and through the code table at 6 — and a
// decimal page. MB/s reads as Mrows/s.
func BenchmarkKernelFilter(b *testing.B) {
	chunks, cols := benchRowGroup(b)
	for _, tc := range []struct {
		name string
		col  int
		enc  colenc.Encoding
		cmp  *Compare
	}{
		{"shipdate-frame12", benchShip, colenc.FOR, &Compare{Op: OpLt, Value: IntLit(35)}},
		{"partkey-frame18", benchPart, colenc.FOR, &Compare{Op: OpLt, Value: IntLit(2000)}},
		{"returnflag-packed2", benchFlag, colenc.Dict, &Compare{Op: OpEq, Value: StringLit("R")}},
		{"discount-dict4", benchDiscount, colenc.Dict, &Compare{Op: OpGe, Value: FloatLit(0.06)}},
		{"quantity-dict6", benchQuantity, colenc.Dict, &Compare{Op: OpLt, Value: IntLit(25)}},
		{"price-decimal", benchPrice, colenc.Decimal, &Compare{Op: OpLt, Value: FloatLit(2000)}},
	} {
		if enc := chunks[tc.col].Encoding(); enc != tc.enc {
			b.Fatalf("%s: the writer chose %v", tc.name, enc)
		}
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(benchRows)
			for i := 0; i < b.N; i++ {
				bm, err := FilterChunk(tc.cmp, chunks[tc.col])
				if err != nil {
					b.Fatal(err)
				}
				benchSink += bm.Len()
			}
		})
		b.Run(tc.name+"-ref", func(b *testing.B) {
			b.SetBytes(benchRows)
			for i := 0; i < b.N; i++ {
				bm, err := EvalCompare(tc.cmp, cols[tc.col])
				if err != nil {
					b.Fatal(err)
				}
				benchSink += bm.Len()
			}
		})
	}
}

// BenchmarkKernelFilterRange times TPC-H Q2's date range, l_shipdate >= lo
// AND l_shipdate < hi over a frame of reference, as a node evaluates it: the
// two bounds folded into one pass (FilterAll), against a pass per bound and
// their AND. MB/s reads as Mrows/s.
func BenchmarkKernelFilterRange(b *testing.B) {
	chunks, _ := benchRowGroup(b)
	ch := chunks[benchShip]
	cs := []*Compare{{Op: OpGe, Value: IntLit(757)}, {Op: OpLt, Value: IntLit(1480)}}
	b.Run("shipdate-frame12-folded", func(b *testing.B) {
		b.SetBytes(benchRows)
		for i := 0; i < b.N; i++ {
			bm, err := FilterAll(cs, ch)
			if err != nil {
				b.Fatal(err)
			}
			benchSink += bm.Len()
		}
	})
	b.Run("shipdate-frame12-per-bound", func(b *testing.B) {
		b.SetBytes(benchRows)
		for i := 0; i < b.N; i++ {
			bm, err := FilterChunk(cs[0], ch)
			if err != nil {
				b.Fatal(err)
			}
			hi, err := FilterChunk(cs[1], ch)
			if err != nil || bm.And(hi) != nil {
				b.Fatal(err)
			}
			benchSink += bm.Len()
		}
	})
}

// BenchmarkFilterChunk times the filter five of the repository benchmark's six
// selective templates start with — l_shipdate < cutoff at about 1.4% — on an
// l_shipdate chunk of the generator's own lineitem, as the writer encodes it:
// with the opened chunk in hand, and from the stored bytes (open, filter,
// release), which is what a node's Filter handler does. MB/s reads as Mrows/s.
func BenchmarkFilterChunk(b *testing.B) {
	cfg := tpch.DefaultConfig()
	cfg.RowGroups = 1
	data, err := tpch.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	f, err := lpq.Open(data)
	if err != nil {
		b.Fatal(err)
	}
	m := f.Footer().RowGroups[0].Chunks[tpch.ColShipDate]
	raw, err := f.ChunkBytes(0, tpch.ColShipDate)
	if err != nil {
		b.Fatal(err)
	}
	cmp := &Compare{Column: "l_shipdate", Op: OpLt, Value: IntLit(35)}
	run := func(b *testing.B, ch *lpq.Chunk) {
		bm, err := FilterChunk(cmp, ch)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += bm.Len()
	}
	b.Run("l_shipdate", func(b *testing.B) {
		ch, err := lpq.OpenChunk(lpq.Int64, m, raw)
		if err != nil {
			b.Fatal(err)
		}
		defer ch.Release()
		b.SetBytes(int64(m.NumValues))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b, ch)
		}
	})
	b.Run("l_shipdate-open+filter", func(b *testing.B) {
		b.SetBytes(int64(m.NumValues))
		for i := 0; i < b.N; i++ {
			ch, err := lpq.OpenChunk(lpq.Int64, m, raw)
			if err != nil {
				b.Fatal(err)
			}
			run(b, ch)
			ch.Release()
		}
	})
}

func benchSelection(percent int) *bitmap.Bitmap {
	rng := rand.New(rand.NewSource(3))
	sel := bitmap.New(benchRows)
	for i := 0; i < benchRows; i++ {
		if rng.Intn(100) < percent {
			sel.Set(i)
		}
	}
	return sel
}

// BenchmarkKernelAggregate1pct times the fused gather-and-fold of 1% of a
// decimal float chunk — an ungrouped SUM, a GROUP BY with no key — against
// folding the decoded column.
func BenchmarkKernelAggregate1pct(b *testing.B) {
	chunks, cols := benchRowGroup(b)
	sel := benchSelection(1)
	b.Run("price-decimal", func(b *testing.B) {
		b.SetBytes(benchRows)
		for i := 0; i < b.N; i++ {
			g := NewGroupTable([]AggKind{AggSum}, 0)
			if err := g.AddChunks(nil, chunks[benchPrice:benchPrice+1], sel); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("price-decimal-ref", func(b *testing.B) {
		b.SetBytes(benchRows)
		for i := 0; i < b.N; i++ {
			NewAggState(AggSum).addSelected(cols[benchPrice], sel)
		}
	})
}

// BenchmarkKernelGroupBy times GROUP BY l_returnflag with COUNT(l_orderkey)
// and SUM(l_extendedprice) over every row — the repository benchmark's
// group_returnflag template, one row group of it — as a node calls it: COUNT
// reads no column (the coordinator ships none for it), and the selection of a
// query with no WHERE is the full bitmap the node unmarshals. The reference
// row runs AddRows over decoded columns, COUNT's argument empty as well.
func BenchmarkKernelGroupBy(b *testing.B) {
	chunks, cols := benchRowGroup(b)
	kinds := []AggKind{AggCount, AggSum}
	full := bitmap.NewFull(benchRows)
	b.Run("returnflag", func(b *testing.B) {
		b.SetBytes(benchRows)
		for i := 0; i < b.N; i++ {
			g := NewGroupTable(kinds, 0)
			if err := g.AddChunks(chunks[benchFlag:benchFlag+1], []*lpq.Chunk{nil, chunks[benchPrice]}, full); err != nil {
				b.Fatal(err)
			}
			benchSink += g.Len()
		}
	})
	b.Run("returnflag-ref", func(b *testing.B) {
		b.SetBytes(benchRows)
		for i := 0; i < b.N; i++ {
			g := NewGroupTable(kinds, 0)
			if err := g.AddRows(cols[benchFlag:benchFlag+1], []lpq.ColumnData{{}, cols[benchPrice]}, full); err != nil {
				b.Fatal(err)
			}
			benchSink += g.Len()
		}
	})
}

// BenchmarkTopK10of60000 times ORDER BY l_extendedprice DESC LIMIT 10 over one
// row group — the top10_price template's node work, opened chunk in hand and
// the full bitmap a query with no WHERE unmarshals as its selection — against
// boxing every row and sorting.
func BenchmarkTopK10of60000(b *testing.B) {
	chunks, cols := benchRowGroup(b)
	full := bitmap.NewFull(benchRows)
	b.Run("price-decimal", func(b *testing.B) {
		b.SetBytes(benchRows)
		for i := 0; i < b.N; i++ {
			tk := NewTopK(10, true)
			if err := tk.PushChunk(chunks[benchPrice], full, 0); err != nil {
				b.Fatal(err)
			}
			benchSink += len(tk.Rows())
		}
	})
	b.Run("price-decimal-ref", func(b *testing.B) {
		b.SetBytes(benchRows)
		for i := 0; i < b.N; i++ {
			benchSink += len(referenceTopK(10, true, allRows(cols[benchPrice], full, 0)))
		}
	})
}
