package store

import (
	"reflect"
	"testing"
)

// TestQueryParallelMatchesSerial is the determinism guarantee of the query
// fan-out: for every execution configuration, a store running the stage
// worker pool at size 8 must produce Results identical to a store running
// it at size 1 (serial) — only wall-clock time may differ. The comparison is
// deep equality on the whole Result minus Stats.Wall, so it covers every
// counter, Stats.CoordProcBytes and the cost ledger Stats.Stages entry by
// entry and in order: what a latency model reads, and so any latency it
// prices, cannot depend on worker scheduling.
func TestQueryParallelMatchesSerial(t *testing.T) {
	queries := []string{
		"SELECT id, price FROM obj WHERE qty < 10",
		"SELECT * FROM obj WHERE qty < 25 AND flag = 'A'",
		"SELECT COUNT(*), SUM(qty), AVG(price) FROM obj WHERE qty < 40",
		"SELECT flag, SUM(price) FROM obj WHERE id < 900",
		"SELECT id FROM obj WHERE qty < 12 LIMIT 7",
		"SELECT comment FROM obj WHERE flag = 'R' OR qty < 3",
		"SELECT flag, COUNT(*), SUM(price) FROM obj WHERE qty < 40 GROUP BY flag ORDER BY flag",
		"SELECT id, price FROM obj WHERE qty >= 10 ORDER BY price DESC LIMIT 7",
	}
	configs := []struct {
		name string
		opts func() Options
	}{
		{"fusion", fusionTestOptions},
		{"baseline", BaselineOptions},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			data, _, _ := makeObject(t, 4, 400, 99)
			serialOpts := cfg.opts()
			serialOpts.QueryWorkers = 1
			parallelOpts := cfg.opts()
			parallelOpts.QueryWorkers = 8
			serial, _ := newSimStore(t, serialOpts)
			parallel, _ := newSimStore(t, parallelOpts)
			if _, err := serial.Put("obj", data); err != nil {
				t.Fatal(err)
			}
			if _, err := parallel.Put("obj", data); err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				want, err := serial.Query(q)
				if err != nil {
					t.Fatalf("%s (serial): %v", q, err)
				}
				got, err := parallel.Query(q)
				if err != nil {
					t.Fatalf("%s (parallel): %v", q, err)
				}
				want.Stats.Wall, got.Stats.Wall = 0, 0
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s: parallel result differs from serial\nserial:   %+v\nparallel: %+v", q, want, got)
				}
			}
		})
	}
}
