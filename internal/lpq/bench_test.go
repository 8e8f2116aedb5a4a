package lpq

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/fusionstore/fusion/internal/bitmap"
)

// benchRows is a lineitem row group at the repository benchmark's scale.
const benchRows = 60000

// benchColumns generates the column shapes of a lineitem row group that the
// scan workloads read, under the encodings the default writer gives them:
// l_shipdate (2,526 dates: a frame of reference, 12-bit offsets), l_quantity
// (50 values: dictionary, 6-bit packed codes), l_returnflag (3 strings: 2-bit
// codes), l_extendedprice (cents, a third of them an ulp off: decimal pages
// whose codes carry the ulp), l_comment (FSST strings), and a sorted date
// column for run-length pages.
func benchColumns() map[string]ColumnData {
	rng := rand.New(rand.NewSource(7))
	ship, sorted, qty := make([]int64, benchRows), make([]int64, benchRows), make([]int64, benchRows)
	price := make([]float64, benchRows)
	flag, comment := make([]string, benchRows), make([]string, benchRows)
	for i := range ship {
		ship[i] = rng.Int63n(2526)
		sorted[i] = ship[i]
		qty[i] = int64(1 + rng.Intn(50))
		price[i] = float64(qty[i]) * (900 + float64(rng.Intn(200000))/100)
		flag[i] = []string{"A", "N", "R"}[rng.Intn(3)]
		comment[i] = fmt.Sprintf("carefully final %d deposits sleep %d", rng.Intn(1<<20), rng.Intn(1<<20))[:10+rng.Intn(26)]
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return map[string]ColumnData{
		"quantity-packed6": IntColumn(qty), "returnflag-packed2": StringColumn(flag),
		"sorted-rle": IntColumn(sorted), "shipdate-frame12": IntColumn(ship),
		"price-decimal": FloatColumn(price), "comment-fsst": StringColumn(comment),
	}
}

// benchOrder lists the columns, the three dictionary ones first.
var benchOrder = []string{"quantity-packed6", "returnflag-packed2", "sorted-rle", "shipdate-frame12", "price-decimal", "comment-fsst"}

type benchChunk struct {
	typ Type
	m   ChunkMeta
	raw []byte
}

func benchChunks() map[string]benchChunk {
	out := make(map[string]benchChunk)
	for name, col := range benchColumns() {
		m, raw := encodeChunk(col, DefaultWriterOptions())
		out[name] = benchChunk{col.Type, m, raw}
	}
	return out
}

func mustOpen(b *testing.B, c benchChunk) *Chunk {
	ch, err := OpenChunk(c.typ, c.m, c.raw)
	if err != nil {
		b.Fatal(err)
	}
	return ch
}

var benchSink int

// BenchmarkKernelOpen times OpenChunk: CRC, Snappy into a recycled buffer
// where the writer kept it, dictionary and page directory. MB/s is of decoded (plain) bytes, as in the
// repository benchmark's lpq.decode_* rows.
func BenchmarkKernelOpen(b *testing.B) {
	chunks := benchChunks()
	for _, name := range benchOrder {
		c := chunks[name]
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(c.m.RawSize))
			for i := 0; i < b.N; i++ {
				mustOpen(b, c).Release()
			}
		})
	}
}

// BenchmarkKernelSelectCodes times the code scan of a dictionary filter
// (opened chunk in hand, verdict on every other entry) per encoding, and
// beside it the offset scan of a frame-of-reference filter (a 1.4% range of
// l_shipdate); the rows/s is SetBytes with one "byte" per row.
func BenchmarkKernelSelectCodes(b *testing.B) {
	chunks := benchChunks()
	for _, name := range benchOrder[:3] {
		ch := mustOpen(b, chunks[name])
		dict, _ := ch.Dict()
		verdict := bitmap.New(dict.Len())
		for i := 0; i < dict.Len(); i += 2 {
			verdict.Set(i)
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(benchRows) // MB/s reads as Mrows/s
			for i := 0; i < b.N; i++ {
				bm, err := ch.SelectCodes(verdict)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += bm.Len()
			}
		})
		ch.Release()
	}
	ch := mustOpen(b, chunks["shipdate-frame12"])
	defer ch.Release()
	b.Run("shipdate-frame12", func(b *testing.B) {
		b.SetBytes(benchRows)
		for i := 0; i < b.N; i++ {
			bm, err := ch.SelectInts(35, math.MaxInt64, true)
			if err != nil {
				b.Fatal(err)
			}
			benchSink += bm.Len()
		}
	})
}

// BenchmarkKernelGather1pct times a node's projection reply of 1% of the rows
// from an opened chunk against decoding the whole chunk and picking (which is
// what a node did).
func BenchmarkKernelGather1pct(b *testing.B) {
	chunks := benchChunks()
	rng := rand.New(rand.NewSource(3))
	sel := bitmap.New(benchRows)
	for i := 0; i < benchRows/100; i++ {
		sel.Set(rng.Intn(benchRows))
	}
	for _, name := range benchOrder {
		c := chunks[name]
		ch := mustOpen(b, c)
		b.Run(name, func(b *testing.B) {
			b.SetBytes(benchRows)
			var buf []byte
			for i := 0; i < b.N; i++ {
				var err error
				if buf, err = ch.AppendSelected(buf[:0], sel); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"-open+gather", func(b *testing.B) {
			b.SetBytes(benchRows)
			var buf []byte
			for i := 0; i < b.N; i++ {
				ch := mustOpen(b, c)
				buf, _ = ch.AppendSelected(buf[:0], sel)
				ch.Release()
			}
		})
		b.Run(name+"-ref", func(b *testing.B) {
			b.SetBytes(benchRows)
			for i := 0; i < b.N; i++ {
				col, err := referenceDecodeChunk(c.typ, c.m, c.raw)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += len(plainBytes(referenceSelect(col, sel)))
			}
		})
		ch.Release()
	}
}

// BenchmarkKernelDecodeChunk times DecodeChunk (open + gather of every row)
// against the page-by-page decoder it replaced, in MB/s of decoded bytes.
func BenchmarkKernelDecodeChunk(b *testing.B) {
	chunks := benchChunks()
	for _, name := range benchOrder {
		c := chunks[name]
		for _, impl := range []struct {
			name   string
			decode func(Type, ChunkMeta, []byte) (ColumnData, error)
		}{{"", DecodeChunk}, {"-ref", referenceDecodeChunk}} {
			b.Run(name+impl.name, func(b *testing.B) {
				b.SetBytes(int64(c.m.RawSize))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					col, err := impl.decode(c.typ, c.m, c.raw)
					if err != nil {
						b.Fatal(err)
					}
					benchSink += col.Len()
				}
			})
		}
	}
}

// BenchmarkAppendSelected times both ends of a pushed projection of 1%, half
// and 90% of the rows, per encoding: a node writing the reply from the opened
// chunk, and the coordinator opening the reply and gathering it into its
// window of a result column. reply-B is the reply's size. The plain case is
// l_extendedprice written with no dictionary.
func BenchmarkAppendSelected(b *testing.B) {
	chunks := benchChunks()
	prices := benchColumns()["price-decimal"]
	m, raw := encodeChunk(prices, WriterOptions{DisableDict: true, PageRows: 20000})
	chunks["price-plain"] = benchChunk{Float64, m, raw}
	for _, pct := range []int{1, 50, 90} {
		rng := rand.New(rand.NewSource(5))
		sel := bitmap.New(benchRows)
		for i := 0; i < benchRows; i++ {
			if rng.Intn(100) < pct {
				sel.Set(i)
			}
		}
		n := sel.Count()
		for _, name := range append(benchOrder, "price-plain") {
			c := chunks[name]
			ch := mustOpen(b, c)
			reply, err := ch.AppendSelected(nil, sel)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/%d%%", name, pct), func(b *testing.B) {
				b.SetBytes(benchRows)
				b.ReportMetric(float64(len(reply)), "reply-B")
				var buf []byte
				for i := 0; i < b.N; i++ {
					if buf, err = ch.AppendSelected(buf[:0], sel); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/%d%%/open+gather", name, pct), func(b *testing.B) {
				b.SetBytes(benchRows)
				col := MakeColumn(c.typ, n)
				for i := 0; i < b.N; i++ {
					r, err := OpenReply(c.typ, n, reply)
					if err == nil {
						_, err = r.AppendGather(col.Window(0, n), nil)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
			ch.Release()
		}
	}
}
