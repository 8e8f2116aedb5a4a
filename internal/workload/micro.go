package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/metrics"
)

// QueriesPerCell is the number of queries behind each measured data point.
// The paper runs 10K queries per experiment on a testbed; the simulated
// runs converge with far fewer because the only stochastic inputs are the
// predicate windows and the cost model's jitter.
var QueriesPerCell = 20

// sortedColumn returns the dataset column's values in sorted order
// (cached), used to derive selectivity-targeted predicate cutoffs.
func (l *Lab) sortedColumn(d DatasetName, col string) lpq.ColumnData {
	key := string(d) + "\x00" + col
	l.mu.Lock()
	if l.sortedCols == nil {
		l.sortedCols = make(map[string]lpq.ColumnData)
	}
	if c, ok := l.sortedCols[key]; ok {
		l.mu.Unlock()
		return c
	}
	l.mu.Unlock()

	data := l.File(d)
	f, err := lpq.Open(data)
	if err != nil {
		panic(err)
	}
	idx := f.Footer().ColumnIndex(col)
	if idx < 0 {
		panic(fmt.Sprintf("workload: no column %s in %s", col, d))
	}
	c, err := f.ReadColumn(idx)
	if err != nil {
		panic(err)
	}
	switch c.Type {
	case lpq.Int64:
		sort.Slice(c.Ints, func(a, b int) bool { return c.Ints[a] < c.Ints[b] })
	case lpq.Float64:
		sort.Float64s(c.Floats)
	default:
		sort.Strings(c.Strings)
	}
	l.mu.Lock()
	l.sortedCols[key] = c
	l.mu.Unlock()
	return c
}

func litString(c lpq.ColumnData, rank int) string {
	if rank < 0 {
		rank = 0
	}
	if rank >= c.Len() {
		rank = c.Len() - 1
	}
	switch c.Type {
	case lpq.Int64:
		return strconv.FormatInt(c.Ints[rank], 10)
	case lpq.Float64:
		return strconv.FormatFloat(c.Floats[rank], 'g', 17, 64)
	default:
		return "'" + strings.ReplaceAll(c.Strings[rank], "'", "''") + "'"
	}
}

// MicroQuery builds the paper's microbenchmark query (§6 Workloads):
// retrieve a single column with a filter on that same column hitting
// approximately the target selectivity. The predicate is a range window at
// a random position, so repeated queries differ while holding selectivity.
func (l *Lab) MicroQuery(d DatasetName, col string, sel float64, rng *rand.Rand) string {
	sorted := l.sortedColumn(d, col)
	n := sorted.Len()
	table := objectName(d)
	if sel >= 1 {
		return fmt.Sprintf("SELECT %s FROM %s WHERE %s >= %s", col, table, col, litString(sorted, 0))
	}
	window := int(sel * float64(n))
	if window < 1 {
		window = 1
	}
	start := 0
	if n-window > 0 {
		start = rng.Intn(n - window)
	}
	lo := litString(sorted, start)
	hi := litString(sorted, start+window)
	if lo == hi {
		// Duplicate-heavy column: fall back to a one-sided cutoff.
		return fmt.Sprintf("SELECT %s FROM %s WHERE %s < %s", col, table, col, hi)
	}
	return fmt.Sprintf("SELECT %s FROM %s WHERE %s >= %s AND %s < %s", col, table, col, lo, col, hi)
}

// RunResult aggregates a query batch's measurements on one system.
type RunResult struct {
	Latency                 metrics.LatencyRecorder
	Traffic                 uint64
	CoordProcBytes          uint64
	Selectivity             float64
	PushdownOn, PushdownOff int
}

// Hist, when non-nil, receives every simulated query latency RunQueries
// measures, broken down by phase ("query.total", "query.disk",
// "query.proc", "query.net"). fusion-bench installs a set here so each
// experiment's tables come with p50/p95/p99 latency distributions for free;
// the nil default costs the harness nothing.
var Hist *metrics.HistogramSet

// RunQueries executes the batch against the system, recording simulated
// latency samples and traffic.
func RunQueries(sys *System, queries []string) (*RunResult, error) {
	out := &RunResult{}
	for _, q := range queries {
		res, sim, err := sys.Query(q)
		if err != nil {
			return nil, err
		}
		out.Latency.Record(sim)
		out.Traffic += res.Stats.TrafficBytes
		out.CoordProcBytes += res.Stats.CoordProcBytes
		out.Selectivity += res.Stats.Selectivity
		out.PushdownOn += res.Stats.PushdownOn
		out.PushdownOff += res.Stats.PushdownOff
		Hist.Observe(metrics.Key{Op: "query.total", Node: metrics.NodeNone}, sim.Total)
		Hist.Observe(metrics.Key{Op: "query.disk", Node: metrics.NodeNone}, sim.Phase.DiskRead)
		Hist.Observe(metrics.Key{Op: "query.proc", Node: metrics.NodeNone}, sim.Phase.Processing)
		Hist.Observe(metrics.Key{Op: "query.net", Node: metrics.NodeNone}, sim.Phase.Network)
	}
	if len(queries) > 0 {
		out.Selectivity /= float64(len(queries))
	}
	return out, nil
}

// MicroBatch builds QueriesPerCell microbenchmark queries for a column at a
// selectivity, deterministically seeded.
func (l *Lab) MicroBatch(d DatasetName, col string, sel float64, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, QueriesPerCell)
	for i := range out {
		out[i] = l.MicroQuery(d, col, sel, rng)
	}
	return out
}
