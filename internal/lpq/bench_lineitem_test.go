package lpq_test

import (
	"testing"

	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/tpch"
)

// BenchmarkOpenChunk times OpenChunk — CRC, Snappy where the writer kept it,
// dictionary and page directory — on each of the sixteen columns of a lineitem
// row group at the repository benchmark's scale, as the writer encodes them:
// the price a node pays before any pushed operator runs. MB/s is of decoded
// (plain) bytes. It lives outside package lpq because the generator imports it.
func BenchmarkOpenChunk(b *testing.B) {
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
	for col, c := range f.Footer().Columns {
		m := f.Footer().RowGroups[0].Chunks[col]
		raw, err := f.ChunkBytes(0, col)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.Name, func(b *testing.B) {
			b.SetBytes(int64(m.RawSize))
			for i := 0; i < b.N; i++ {
				ch, err := lpq.OpenChunk(c.Type, m, raw)
				if err != nil {
					b.Fatal(err)
				}
				ch.Release()
			}
		})
	}
}
