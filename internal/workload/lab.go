// Package workload implements the paper's evaluation harness: one driver
// per table and figure of §3/§6, each regenerating the corresponding rows or
// series over the simulated cluster (see DESIGN.md's per-experiment index).
// The cmd/fusion-bench binary and the repository's bench_test.go both run
// these drivers.
package workload

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"github.com/fusionstore/fusion/internal/datasets"
	"github.com/fusionstore/fusion/internal/fac"
	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/metrics"
	"github.com/fusionstore/fusion/internal/simnet"
	"github.com/fusionstore/fusion/internal/store"
	"github.com/fusionstore/fusion/internal/tpch"
)

// Report is one experiment's printable result: the rows/series the paper's
// corresponding artifact shows.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Print renders the report as an aligned text table.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	printRow(r.Header)
	for _, row := range r.Rows {
		printRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "  note: "+n)
	}
	fmt.Fprintln(w)
}

// DatasetName identifies one of the four evaluation datasets.
type DatasetName string

// The four datasets of Table 3.
const (
	Lineitem  DatasetName = "tpc-h lineitem"
	Taxi      DatasetName = "taxi"
	RecipeNLG DatasetName = "recipeNLG"
	UKPP      DatasetName = "uk pp"
)

// AllDatasets lists the Table 3 datasets in paper order.
var AllDatasets = []DatasetName{Lineitem, Taxi, RecipeNLG, UKPP}

// objectName returns the object/table name a dataset is stored under.
func objectName(d DatasetName) string {
	switch d {
	case Lineitem:
		return "lineitem"
	case Taxi:
		return "taxi"
	case RecipeNLG:
		return "recipenlg"
	default:
		return "ukpp"
	}
}

// System is one store deployment under test: a cluster, a Store facade and
// the latency model that prices what the store counts.
type System struct {
	Cluster *simnet.Cluster
	Model   *simnet.LatencyModel
	Store   *store.Store
}

// Query runs q on the system's store and prices the cost ledger it hands
// back. Every query an experiment runs goes through here, wanted latency or
// not: a system's model draws its jitter from one stream, so a query run but
// not priced shifts every later sample.
func (sys *System) Query(q string) (*store.Result, metrics.LatencySample, error) {
	res, err := sys.Store.Query(q)
	if err != nil {
		return nil, metrics.LatencySample{}, fmt.Errorf("workload: %q: %w", q, err)
	}
	return res, sys.Model.QueryTime(res.Stats.Stages, res.WireBytes()), nil
}

// Lab builds and caches the evaluation artifacts (generated datasets,
// loaded stores) shared across experiments. Scale 1.0 is the laptop-scale
// default; raising it grows datasets proportionally toward the paper's
// full-size files.
type Lab struct {
	Scale float64

	mu         sync.Mutex
	files      map[DatasetName][]byte
	footers    map[DatasetName]*lpq.Footer
	oracles    map[DatasetName]fac.OracleResult
	systems    map[string]*System
	sortedCols map[string]lpq.ColumnData
}

// NewLab returns a Lab at the given scale (≤0 means 1.0).
func NewLab(scale float64) *Lab {
	if scale <= 0 {
		scale = 1.0
	}
	return &Lab{
		Scale:   scale,
		files:   make(map[DatasetName][]byte),
		footers: make(map[DatasetName]*lpq.Footer),
		oracles: make(map[DatasetName]fac.OracleResult),
		systems: make(map[string]*System),
	}
}

func (l *Lab) scaleRows(n int) int {
	v := int(float64(n) * l.Scale)
	if v < 100 {
		v = 100
	}
	return v
}

// File returns (generating on first use) the dataset's lpq bytes.
func (l *Lab) File(d DatasetName) []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	if f, ok := l.files[d]; ok {
		return f
	}
	var data []byte
	var err error
	switch d {
	case Lineitem:
		cfg := tpch.DefaultConfig()
		cfg.RowsPerGroup = l.scaleRows(cfg.RowsPerGroup)
		data, err = tpch.Generate(cfg)
	case Taxi:
		cfg := datasets.TaxiConfig()
		cfg.RowsPerGroup = l.scaleRows(cfg.RowsPerGroup)
		data, err = datasets.Taxi(cfg)
	case RecipeNLG:
		cfg := datasets.RecipeConfig()
		cfg.RowsPerGroup = l.scaleRows(cfg.RowsPerGroup)
		data, err = datasets.RecipeNLG(cfg)
	default:
		cfg := datasets.UKPPConfig()
		cfg.RowsPerGroup = l.scaleRows(cfg.RowsPerGroup)
		data, err = datasets.UKPP(cfg)
	}
	if err != nil {
		panic(fmt.Sprintf("workload: generating %s: %v", d, err))
	}
	l.files[d] = data
	return data
}

// Footer returns the dataset's parsed footer.
func (l *Lab) Footer(d DatasetName) *lpq.Footer {
	data := l.File(d)
	l.mu.Lock()
	defer l.mu.Unlock()
	if f, ok := l.footers[d]; ok {
		return f
	}
	f, err := lpq.ParseFooter(data)
	if err != nil {
		panic(fmt.Sprintf("workload: footer of %s: %v", d, err))
	}
	l.footers[d] = f
	return f
}

// ScaledBlockSize returns the fixed erasure-code block size. The paper
// configures one absolute block size (100MB) for a 10GB lineitem file; the
// equivalent here is 100MB scaled by this lab's lineitem size, applied to
// every dataset — so the block-to-chunk geometry per dataset matches the
// paper's (e.g. recipeNLG's chunks are a large fraction of a block, which
// is what makes padding expensive there, Fig. 4d).
func (l *Lab) ScaledBlockSize(d DatasetName) uint64 {
	_ = d // one global size, as in the paper
	const paperBlock, paperLineitem = 100 << 20, 10 << 30
	bs := uint64(float64(paperBlock) / paperLineitem * float64(len(l.File(Lineitem))))
	if bs < 4096 {
		bs = 4096
	}
	return bs
}

// ExperimentBudget is the FAC storage budget the experiment stores run
// with. The paper uses 2% on full-size files (hundreds of MB-scale chunks);
// the laptop-scale files pack slightly less tightly, and the point of the
// latency experiments is to measure FAC's layout, not the fallback.
const ExperimentBudget = 0.10

// CacheBytes, when set (fusion-bench -cachebytes), enables the coordinator
// read cache on every deployment the lab builds — for measuring hot-query
// speedup and hit rates over the experiment workloads. 0 (the default)
// keeps the experiments cold-path, matching the paper's measurements.
var CacheBytes int64

// systemFor builds (or returns cached) a System with the dataset loaded.
func (l *Lab) systemFor(key string, d DatasetName, opts store.Options, netBandwidth float64) *System {
	l.mu.Lock()
	if sys, ok := l.systems[key]; ok {
		l.mu.Unlock()
		return sys
	}
	l.mu.Unlock()
	data := l.File(d) // outside the lock: generation is slow

	cfg := simnet.DefaultConfig()
	if netBandwidth > 0 {
		cfg.NetBandwidth = netBandwidth
	}
	cl := simnet.New(cfg)
	opts.CacheBytes = CacheBytes
	s, err := store.New(cl, opts)
	if err != nil {
		panic(fmt.Sprintf("workload: %v", err))
	}
	if _, err := s.Put(objectName(d), data); err != nil {
		panic(fmt.Sprintf("workload: loading %s: %v", d, err))
	}
	sys := &System{Cluster: cl, Model: simnet.NewLatencyModel(cfg), Store: s}
	l.mu.Lock()
	l.systems[key] = sys
	l.mu.Unlock()
	return sys
}

// Fusion returns the Fusion deployment (FAC + adaptive pushdown) with the
// dataset loaded.
func (l *Lab) Fusion(d DatasetName) *System {
	opts := store.FusionOptions()
	opts.StorageBudget = ExperimentBudget
	opts.FixedBlockSize = l.ScaledBlockSize(d)
	return l.systemFor("fusion/"+string(d), d, opts, 0)
}

// Baseline returns the baseline deployment (fixed blocks + reassembly).
func (l *Lab) Baseline(d DatasetName) *System {
	opts := store.BaselineOptions()
	opts.FixedBlockSize = l.ScaledBlockSize(d)
	return l.systemFor("baseline/"+string(d), d, opts, 0)
}

// FusionWithPolicy returns a Fusion deployment with a fixed pushdown policy
// (the abl-costmodel ablation).
func (l *Lab) FusionWithPolicy(d DatasetName, p store.PushdownPolicy) *System {
	opts := store.FusionOptions()
	opts.StorageBudget = ExperimentBudget
	opts.FixedBlockSize = l.ScaledBlockSize(d)
	opts.Pushdown = p
	return l.systemFor(fmt.Sprintf("fusion-%v/%s", p, d), d, opts, 0)
}

// FusionAt and BaselineAt return deployments with a specific per-node
// network bandwidth (Fig. 14c).
func (l *Lab) FusionAt(d DatasetName, gbps float64) *System {
	opts := store.FusionOptions()
	opts.StorageBudget = ExperimentBudget
	opts.FixedBlockSize = l.ScaledBlockSize(d)
	return l.systemFor(fmt.Sprintf("fusion@%g/%s", gbps, d), d, opts, gbps*1e9/8)
}

// BaselineAt is the bandwidth-parameterized baseline.
func (l *Lab) BaselineAt(d DatasetName, gbps float64) *System {
	opts := store.BaselineOptions()
	opts.FixedBlockSize = l.ScaledBlockSize(d)
	return l.systemFor(fmt.Sprintf("baseline@%g/%s", gbps, d), d, opts, gbps*1e9/8)
}

// pct formats a fraction as a percentage string.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

// mb formats bytes as MB.
func mb(b uint64) string { return fmt.Sprintf("%.1fMB", float64(b)/(1<<20)) }
