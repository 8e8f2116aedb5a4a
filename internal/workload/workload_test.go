package workload

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/fusionstore/fusion/internal/store"
)

// testLab returns a small-scale lab shared by this package's tests.
func testLab(t *testing.T) *Lab {
	t.Helper()
	old := QueriesPerCell
	QueriesPerCell = 5
	t.Cleanup(func() { QueriesPerCell = old })
	return NewLab(0.10)
}

// parsePct parses "12.3%" back into 0.123.
func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("parsing %q: %v", s, err)
	}
	return v / 100
}

// TestRegistryComplete pins the registry to exactly the paper's artifacts,
// the abl-* ablations and the groupby extension: every one has a driver, and
// nothing else — measuring this implementation is benchmark/run.sh's job.
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"tab3", "tab4", "fig4a", "fig4b", "fig4c", "fig4d", "fig6",
		"fig10a", "fig10b", "fig12", "fig13", "fig13cd", "fig14ab",
		"fig14c", "fig14d", "fig15a", "fig15b", "fig16a", "fig16b",
		"fig16c", "headline",
		"abl-leastloaded", "abl-sortdesc", "abl-costmodel", "abl-budget",
		"abl-rs1410", "groupby",
	}
	got := make([]string, len(Experiments))
	for i, e := range Experiments {
		got[i] = e.ID
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("registry ids:\n got %v\nwant %v", got, want)
	}
	for _, id := range want {
		if _, err := Find(id); err != nil {
			t.Error(err)
		}
	}
	if _, err := Find("nope"); err == nil {
		t.Error("unknown id must fail")
	}
}

func TestReportPrint(t *testing.T) {
	r := &Report{ID: "x", Title: "t", Header: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}}, Notes: []string{"n"}}
	var buf bytes.Buffer
	r.Print(&buf)
	out := buf.String()
	for _, want := range []string{"== x: t ==", "a", "bb", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestTab3Shape(t *testing.T) {
	l := testLab(t)
	r := l.Tab3()
	if len(r.Rows) != 4 {
		t.Fatalf("Table 3 must list 4 datasets, got %d", len(r.Rows))
	}
	// Chunk counts must match the paper exactly (they are structural).
	want := map[string]string{
		"tpc-h lineitem": "160",
		"taxi":           "320",
		"recipeNLG":      "84",
		"uk pp":          "240",
	}
	for _, row := range r.Rows {
		if row[2] != want[row[0]] {
			t.Errorf("%s: %s chunks, want %s", row[0], row[2], want[row[0]])
		}
	}
}

func TestFig4aSplitsGrowAsBlocksShrink(t *testing.T) {
	l := testLab(t)
	r := l.Fig4a()
	if len(r.Rows) != 4 {
		t.Fatalf("want 4 block sizes, got %d", len(r.Rows))
	}
	// Split fraction must be non-increasing in block size, and nonzero even
	// at the largest blocks (the paper's central observation).
	var prev = 2.0
	for _, row := range r.Rows {
		v := parsePct(t, row[1])
		if v > prev+1e-9 {
			t.Fatalf("lineitem split fraction must not grow with block size: %v", r.Rows)
		}
		prev = v
	}
	if last := parsePct(t, r.Rows[3][1]); last <= 0 {
		t.Fatalf("100MB-scale blocks must still split some chunks, got %v", last)
	}
}

func TestFig4bNetworkDominates(t *testing.T) {
	l := testLab(t)
	r := l.Fig4b()
	var network, disk float64
	for _, row := range r.Rows {
		switch row[0] {
		case "network overhead":
			network = parsePct(t, row[1])
		case "disk read":
			disk = parsePct(t, row[1])
		}
	}
	// Fig. 4b: ~50% network, small disk share.
	if network < 0.25 {
		t.Fatalf("baseline network share %.2f too low; paper shows ≈0.5", network)
	}
	if disk > network {
		t.Fatalf("disk (%.2f) must not dominate network (%.2f)", disk, network)
	}
}

func TestFig4dPaddingOverheadSubstantial(t *testing.T) {
	l := testLab(t)
	r := l.Fig4d()
	// Padding overhead must be clearly worse than FAC's (Fig. 4d shows up
	// to ~84-100%+); at least one dataset should exceed 10%.
	worst := 0.0
	for _, row := range r.Rows {
		if v := parsePct(t, row[1]); v > worst {
			worst = v
		}
	}
	if worst < 0.10 {
		t.Fatalf("padding worst-case overhead %.3f implausibly low", worst)
	}
}

func TestFig6Profile(t *testing.T) {
	l := testLab(t)
	r := l.Fig6()
	if len(r.Rows) != 16 {
		t.Fatalf("want 16 columns, got %d", len(r.Rows))
	}
	ratio := func(row []string) float64 {
		v, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// Column 9 (l_linestatus) must be among the most compressible; column
	// 15 (l_comment) among the least.
	if ratio(r.Rows[9]) < 3*ratio(r.Rows[15]) {
		t.Fatalf("l_linestatus (%v) must compress far better than l_comment (%v)",
			ratio(r.Rows[9]), ratio(r.Rows[15]))
	}
}

func TestFig10aRuntimeGrows(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle sweep is slow")
	}
	l := testLab(t)
	r := l.Fig10a()
	if len(r.Rows) < 5 {
		t.Fatal("sweep too short")
	}
	// The last instances must be dramatically more expensive than the
	// first (nodes explored is the robust metric).
	first, _ := strconv.Atoi(r.Rows[0][2])
	last, _ := strconv.Atoi(r.Rows[len(r.Rows)-1][2])
	if last < 100*first {
		t.Fatalf("solver work must blow up: %d -> %d nodes", first, last)
	}
}

func TestFig12FACvsBaselineSpan(t *testing.T) {
	l := testLab(t)
	r := l.Fig12()
	if len(r.Rows) != 16 {
		t.Fatalf("want 16 columns, got %d", len(r.Rows))
	}
	// The big column (15, l_comment) must span more nodes than the tiny
	// column 9 under the baseline.
	span := func(i int) float64 {
		v, err := strconv.ParseFloat(r.Rows[i][2], 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if span(15) <= span(9) {
		t.Fatalf("l_comment (%.1f nodes) must span more than l_linestatus (%.1f)", span(15), span(9))
	}
	if span(15) < 1.5 {
		t.Fatalf("l_comment must be split across nodes, got %.1f", span(15))
	}
}

func TestFig13FusionWinsOnBigColumns(t *testing.T) {
	l := testLab(t)
	r := l.Fig13()
	if len(r.Rows) != 16 {
		t.Fatalf("want 16 rows, got %d", len(r.Rows))
	}
	// Columns 5 and 15 (large, split in baseline) must show substantial
	// p50 reduction; no column should show a catastrophic regression.
	byCol := map[string]float64{}
	for _, row := range r.Rows {
		byCol[row[0]] = parsePct(t, row[2])
	}
	if byCol["5"] < 0.20 {
		t.Fatalf("column 5 p50 reduction %.2f; paper shows ≈0.65", byCol["5"])
	}
	if byCol["15"] < 0.20 {
		t.Fatalf("column 15 p50 reduction %.2f", byCol["15"])
	}
	for col, v := range byCol {
		if v < -0.30 {
			t.Fatalf("column %s regressed by %.2f", col, v)
		}
	}
}

// TestEveryQueryIsPriced guards the rule behind System.Query: a system's model
// draws its jitter from one stream, so a query that runs without being priced
// shifts every later sample on that system. Tab4 wants only selectivities, yet
// its two lineitem queries must advance the Fusion model exactly as they did
// when the store priced every query itself — the figures below are that
// commit's, re-taken when Fusion's bitmaps stopped crossing the network
// Snappy-compressed, and the baseline's again when a fetch's ledger entry
// became the request and reply the transport carried, and both again when
// l_comment became FSST (the object shrank: the baseline's fixed-size blocks
// cut l_extendedprice elsewhere, and Fusion's stripes moved), and Fusion's
// again when a pushed projection began replying in the chunk's encoding (the
// cell's pushed replies shrank), and both again when decimal pages began
// carrying an ulp's correction in the row's code (l_extendedprice shrank by
// 46%: the cell reads and ships less, and the baseline's blocks cut it
// elsewhere), and both again when sorted integer pages began holding the
// steps between rows (l_orderkey shrank from 975 to 75 KB, so the baseline's
// blocks cut l_extendedprice elsewhere, and Fusion's stripes moved, so Tab4's
// two lineitem queries drew Fusion's jitter stream otherwise: the cell itself
// is unchanged), and Fusion's again when a stripe's data bins began going
// beside their row groups: the cell's query — l_shipdate filtered, then
// l_extendedprice projected — now reaches its chunks in 18 frames where it
// reached them in 14, and the model charges each frame its RPCOverhead
// (50 µs), so the cell reads 1.61 ms where it read 1.42 ms. That is the
// placement's cost to this cell, not noise: a row group's columns meet on
// fewer nodes, but one column's chunks spread over more (l_shipdate's over 8
// nodes where 6, l_extendedprice's over 9 where 7). And Fusion's again when
// a node began ANDing the conjuncts it holds: the cell's query is a range,
// l_extendedprice >= lo AND l_extendedprice < hi, so each row group sends one
// Filter where it sent two, the node reads and charges the chunk once (disk
// and processing bytes halve) and replies one bitmap of the ≈1% selected
// where two of about half the rows each came back (a node's filter reply
// falls from ≈1.7 KB to ≈0.2 KB), so the cell reads 1.57 ms. No frame was
// added or lost, so Tab4 draws Fusion's jitter as before. And Fusion's again
// when FAC began gathering each row group into bins of its own
// (fac.GatherRowGroups) and a bin no node yet holds a row group of began
// going to the emptiest node: Tab4's lineitem queries run over the new
// placement and take a different number of jitter draws, so the cell draws a
// different stretch of Fusion's jitter stream (1.570374/1.575679 ms before). The cell itself is
// unchanged: with Tab4 unpriced Fusion's p50/p99 read 1.572965ms/1.573556ms
// on both sides. And Fusion's again when a row group's projection began
// riding its conjunction's frame where their chunks share a node: the
// cell's range and its projection read one chunk, so each row group's node
// gets one frame, a Project carrying the range, where a Filter and then a
// Project went in two stages; the bitmap crosses neither way, the node
// reads and charges the chunk once for both, and the cell reads 0.89 ms.
func TestEveryQueryIsPriced(t *testing.T) {
	l := testLab(t)
	l.Tab4()
	f, b := l.columnCell("l_extendedprice", 0.01, 105)
	got := []string{f.Latency.P50().String(), f.Latency.P99().String(), b.Latency.P50().String(), b.Latency.P99().String()}
	want := []string{"887.988µs", "893.453µs", "4.784999ms", "4.789434ms"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fig13 cell for l_extendedprice after tab4 (fusion p50, p99, baseline p50, p99):\n got %v\nwant %v", got, want)
	}
}

func TestFig14abSelectivityTrend(t *testing.T) {
	l := testLab(t)
	r := l.Fig14ab()
	// Column 5's reduction at the lowest selectivity must exceed its
	// reduction at 100% (Fig. 14a's shape).
	first := parsePct(t, r.Rows[0][1])
	last := parsePct(t, r.Rows[len(r.Rows)-1][1])
	if first <= last {
		t.Fatalf("low selectivity (%.2f) must beat full scan (%.2f) on column 5", first, last)
	}
}

func TestFig14cLowBandwidthHelpsFusion(t *testing.T) {
	l := testLab(t)
	r := l.Fig14c()
	// Fusion's advantage must be at least as large at 10Gbps as at 100Gbps.
	at10 := parsePct(t, r.Rows[0][1])
	at100 := parsePct(t, r.Rows[len(r.Rows)-1][1])
	if at10 < at100-0.05 {
		t.Fatalf("fusion must gain more under constrained networks: 10Gbps %.2f vs 100Gbps %.2f", at10, at100)
	}
}

func TestFig14dFusionUsesLessCPU(t *testing.T) {
	l := testLab(t)
	r := l.Fig14d()
	parseMs := func(cell string) float64 {
		// Cells look like "0.025ms (0.0000%)".
		ms, err := strconv.ParseFloat(cell[:strings.Index(cell, "ms")], 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", cell, err)
		}
		return ms
	}
	for _, row := range r.Rows {
		fusion := parseMs(row[1])
		baseline := parseMs(row[2])
		if fusion > baseline*1.5+0.001 {
			t.Fatalf("%s: fusion CPU %.4fms should not exceed baseline %.4fms", row[0], fusion, baseline)
		}
	}
}

func TestFig15FusionWinsRealQueries(t *testing.T) {
	l := testLab(t)
	a := l.Fig15a()
	for _, row := range a.Rows {
		if v := parsePct(t, row[1]); v < -0.10 {
			t.Fatalf("%s: fusion regressed by %.2f on p50", row[0], v)
		}
	}
	b := l.Fig15b()
	for _, row := range b.Rows {
		factor, err := strconv.ParseFloat(strings.TrimSuffix(row[3], "x"), 64)
		if err != nil {
			t.Fatal(err)
		}
		if factor < 1 {
			t.Fatalf("%s: fusion must not generate more traffic (factor %.2f)", row[0], factor)
		}
	}
}

func TestFig16aOverheadShrinksWithChunks(t *testing.T) {
	l := testLab(t)
	r := l.Fig16a()
	// Overhead at 1000 chunks must be below overhead at 50, for every skew.
	for colIdx := 1; colIdx <= 3; colIdx++ {
		first := parsePct(t, r.Rows[0][colIdx])
		last := parsePct(t, r.Rows[len(r.Rows)-1][colIdx])
		if last >= first {
			t.Fatalf("column %d: overhead must shrink with more chunks (%.4f -> %.4f)", colIdx, first, last)
		}
		if last > 0.01 {
			t.Fatalf("1000-chunk overhead %.4f must approach optimal (<1%%)", last)
		}
	}
}

func TestFig16bFACBeatsPaddingTrailsOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle runs are slow")
	}
	l := testLab(t)
	r := l.Fig16b()
	for _, row := range r.Rows {
		oracle := parsePct(t, row[1])
		padding := parsePct(t, row[2])
		facV := parsePct(t, row[3])
		if facV > padding {
			t.Fatalf("%s: FAC (%.4f) must beat padding (%.4f)", row[0], facV, padding)
		}
		if oracle > facV+1e-9 {
			t.Fatalf("%s: oracle bound (%.4f) must not exceed FAC (%.4f)", row[0], oracle, facV)
		}
	}
}

func TestAblCostModelAdaptiveTracksBest(t *testing.T) {
	l := testLab(t)
	r := l.AblCostModel()
	for _, row := range r.Rows {
		parse := func(s string) float64 {
			d, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(s, "µs"), "ms"), "s"), 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", s, err)
			}
			switch {
			case strings.HasSuffix(s, "µs"):
				return d / 1e6
			case strings.HasSuffix(s, "ms"):
				return d / 1e3
			default:
				return d
			}
		}
		adaptive, always, never := parse(row[1]), parse(row[2]), parse(row[3])
		best := always
		if never < best {
			best = never
		}
		if adaptive > best*1.6 {
			t.Fatalf("sel %s: adaptive %.6fs must track best fixed policy %.6fs", row[0], adaptive, best)
		}
	}
}

func TestAblBudgetMonotone(t *testing.T) {
	l := testLab(t)
	r := l.AblBudget()
	prev := 2.0
	for _, row := range r.Rows {
		rate := parsePct(t, row[1])
		if rate > prev+1e-9 {
			t.Fatalf("fallback rate must not grow with a looser budget: %v", r.Rows)
		}
		prev = rate
	}
}

func TestFusionSystemUsesFAC(t *testing.T) {
	l := testLab(t)
	sys := l.Fusion(Lineitem)
	meta, err := sys.Store.Meta("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if meta.Mode != store.LayoutFAC {
		t.Fatalf("fusion experiment store fell back to %v; budget too tight for this scale", meta.Mode)
	}
}

// TestAllExperimentsProduceRows runs every registered driver end to end at
// small scale and requires non-empty output — the harness-level smoke test.
func TestAllExperimentsProduceRows(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment; skipped in -short")
	}
	l := testLab(t)
	for _, e := range Experiments {
		t.Run(e.ID, func(t *testing.T) {
			report := e.Run(l)
			if report.ID != e.ID {
				t.Fatalf("driver returned id %q", report.ID)
			}
			if len(report.Header) == 0 || len(report.Rows) == 0 {
				t.Fatalf("experiment %s produced no output", e.ID)
			}
			for _, row := range report.Rows {
				if len(row) == 0 {
					t.Fatalf("experiment %s has an empty row", e.ID)
				}
			}
			var buf bytes.Buffer
			report.Print(&buf)
			if buf.Len() == 0 {
				t.Fatalf("experiment %s printed nothing", e.ID)
			}
		})
	}
}
