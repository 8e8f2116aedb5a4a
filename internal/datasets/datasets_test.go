package datasets

import (
	"math/rand"
	"testing"

	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/metrics"
	"github.com/fusionstore/fusion/internal/sql"
)

func openGen(t testing.TB, gen func(Config) ([]byte, error), cfg Config) *lpq.File {
	t.Helper()
	data, err := gen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := lpq.Open(data)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func smallTaxi() Config   { return Config{RowGroups: 4, RowsPerGroup: 10000, Seed: 11} }
func smallRecipe() Config { return Config{RowGroups: 3, RowsPerGroup: 2000, Seed: 12} }
func smallUKPP() Config   { return Config{RowGroups: 3, RowsPerGroup: 6000, Seed: 13} }

func TestTaxiShape(t *testing.T) {
	cfg := smallTaxi()
	f := openGen(t, Taxi, cfg)
	if len(f.Footer().Columns) != 20 {
		t.Fatalf("taxi must have 20 columns, got %d", len(f.Footer().Columns))
	}
	if f.Footer().NumChunks() != 20*cfg.RowGroups {
		t.Fatalf("chunks = %d", f.Footer().NumChunks())
	}
}

// TestTaxiCompressibilityProfile verifies the contrast §6.2 leans on: under
// §4.3's rule, push a projection iff selectivity × compressibility < 1, Q4
// (6.3% of the rides) pushes its pickup timestamps and not its fares. The
// paper's file reports ≈1.6 and ≈152; here the timestamps are sorted, so
// frame-of-reference delta pages store each as its gap from the one before
// (4.6× on this object), and the rule still pushes them.
func TestTaxiCompressibilityProfile(t *testing.T) {
	const q4 = 0.063 // TaxiQ4's selectivity
	f := openGen(t, Taxi, smallTaxi())
	footer := f.Footer()
	dateIdx := footer.ColumnIndex("pickup_datetime")
	fareIdx := footer.ColumnIndex("fare_amount")
	if dateIdx < 0 || fareIdx < 0 {
		t.Fatal("columns missing")
	}
	dateRatio := footer.RowGroups[0].Chunks[dateIdx].Compressibility()
	fareRatio := footer.RowGroups[0].Chunks[fareIdx].Compressibility()
	if q4*dateRatio >= 1 {
		t.Fatalf("pickup_datetime compressibility %.1f: Q4's %.1f%% of it is %.2f, want under 1 (pushed)", dateRatio, 100*q4, q4*dateRatio)
	}
	// The paper reports ≈152 on the real file; what matters for Q4 is
	// that selectivity (6.3%) × compressibility stays well above 1.
	if fareRatio < 16 {
		t.Fatalf("fare_amount compressibility %.1f, want ≥16", fareRatio)
	}
}

// TestTaxiUniformChunks verifies Fig. 4c's contrast: taxi chunk sizes are
// far less skewed than recipeNLG's.
func TestTaxiUniformChunks(t *testing.T) {
	taxi := openGen(t, Taxi, smallTaxi())
	recipe := openGen(t, RecipeNLG, smallRecipe())
	skew := func(f *lpq.File) float64 {
		var sizes []float64
		for _, s := range f.Footer().ChunkSizes() {
			sizes = append(sizes, float64(s))
		}
		max := 0.0
		for _, s := range sizes {
			if s > max {
				max = s
			}
		}
		return max / metrics.Mean(sizes)
	}
	if skew(taxi) >= skew(recipe) {
		t.Fatalf("taxi (%.1f) must be less skewed than recipeNLG (%.1f)", skew(taxi), skew(recipe))
	}
}

func TestTaxiQueriesSelectivity(t *testing.T) {
	f := openGen(t, Taxi, smallTaxi())
	idx := f.Footer().ColumnIndex("pickup_datetime")
	col, err := f.ReadColumn(idx)
	if err != nil {
		t.Fatal(err)
	}
	check := func(qs string, target, tol float64) {
		q, err := sql.Parse(qs)
		if err != nil {
			t.Fatalf("%q: %v", qs, err)
		}
		var cutoff int64
		switch w := q.Where.(type) {
		case *sql.Compare:
			cutoff = w.Value.I
		default:
			t.Fatalf("unexpected WHERE shape in %q", qs)
		}
		matched := 0
		for _, v := range col.Ints {
			if v < cutoff {
				matched++
			}
		}
		got := float64(matched) / float64(len(col.Ints))
		if got < target-tol || got > target+tol {
			t.Errorf("%q: selectivity %.4f, want ≈%.3f", qs, got, target)
		}
	}
	check(TaxiQ3(), 0.375, 0.05)
	check(TaxiQ4(), 0.063, 0.02)
}

func TestRecipeShape(t *testing.T) {
	cfg := smallRecipe()
	f := openGen(t, RecipeNLG, cfg)
	if len(f.Footer().Columns) != 7 {
		t.Fatalf("recipeNLG must have 7 columns, got %d", len(f.Footer().Columns))
	}
	// directions must dominate id.
	footer := f.Footer()
	dir := footer.RowGroups[0].Chunks[footer.ColumnIndex("directions")].Size
	id := footer.RowGroups[0].Chunks[footer.ColumnIndex("id")].Size
	if dir < 20*id {
		t.Fatalf("directions (%d) must dwarf id (%d)", dir, id)
	}
}

func TestUKPPShape(t *testing.T) {
	cfg := smallUKPP()
	f := openGen(t, UKPP, cfg)
	if len(f.Footer().Columns) != 16 {
		t.Fatalf("uk pp must have 16 columns, got %d", len(f.Footer().Columns))
	}
	footer := f.Footer()
	// The transaction id is near-incompressible; record_status is constant.
	tx := footer.RowGroups[0].Chunks[footer.ColumnIndex("transaction_id")].Compressibility()
	st := footer.RowGroups[0].Chunks[footer.ColumnIndex("record_status")].Compressibility()
	if tx > 3 {
		t.Fatalf("transaction_id compressibility %.1f too high", tx)
	}
	if st < 50 {
		t.Fatalf("record_status compressibility %.1f too low", st)
	}
}

func TestDefaultConfigsMatchTable3(t *testing.T) {
	// Table 3: taxi 320 chunks, recipeNLG 84, uk pp 240.
	if got := TaxiConfig().RowGroups * 20; got != 320 {
		t.Fatalf("taxi chunks = %d, want 320", got)
	}
	if got := RecipeConfig().RowGroups * 7; got != 84 {
		t.Fatalf("recipeNLG chunks = %d, want 84", got)
	}
	if got := UKPPConfig().RowGroups * 16; got != 240 {
		t.Fatalf("uk pp chunks = %d, want 240", got)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a, err := Taxi(smallTaxi())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Taxi(smallTaxi())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("same seed must give identical output")
	}
}

func TestZipfSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range []float64{0, 0.5, 0.99} {
		sizes := ZipfSizes(rng, s, 1000, 1<<20, 100<<20)
		if len(sizes) != 1000 {
			t.Fatal("wrong count")
		}
		for _, sz := range sizes {
			if sz < 1<<20 || sz > 100<<20 {
				t.Fatalf("size %d out of range (skew %v)", sz, s)
			}
		}
	}
	// Higher skew concentrates mass at the small end.
	rng = rand.New(rand.NewSource(2))
	uniform := ZipfSizes(rng, 0, 5000, 1, 1000)
	skewed := ZipfSizes(rng, 0.99, 5000, 1, 1000)
	mean := func(v []uint64) float64 {
		t := 0.0
		for _, x := range v {
			t += float64(x)
		}
		return t / float64(len(v))
	}
	if mean(skewed) >= mean(uniform) {
		t.Fatalf("zipf 0.99 mean %v must be below uniform mean %v", mean(skewed), mean(uniform))
	}
}
