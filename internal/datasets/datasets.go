// Package datasets generates the three real-world datasets of the paper's
// evaluation (§6, Table 3) as seeded synthetic lpq objects, plus the Zipf
// chunk-size sampler behind the synthetic overhead sweep (Fig. 16a).
//
// Each generator reproduces the published shape of its dataset — column
// count, row-group count, type mix, and the compressibility profile the
// evaluation leans on — rather than the actual (unavailable) records:
//
//   - taxi: 20 columns, near-uniform chunk sizes (Fig. 4c), a
//     weakly-compressible timestamp column (ratio ≈1.6, Q3) and a highly
//     compressible fare column (ratio ≈150, Q4);
//   - recipeNLG: 7 columns dominated by free-text (title, ingredients,
//     directions), a strongly skewed chunk-size distribution;
//   - uk pp (UK property prices): 16 mixed columns of ids, prices, dates
//     and low-cardinality address fields.
package datasets

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/fusionstore/fusion/internal/lpq"
)

// Config scales a generated dataset.
type Config struct {
	RowGroups    int
	RowsPerGroup int
	Seed         int64
}

// TaxiConfig is the laptop-scale default preserving the paper's structure:
// 16 row groups, 20 columns, 320 column chunks (Table 3).
func TaxiConfig() Config { return Config{RowGroups: 16, RowsPerGroup: 40000, Seed: 11} }

// RecipeConfig: 12 row groups × 7 columns = 84 chunks (Table 3). The row
// count keeps the file ≈1/10 the size of the lineitem file, matching the
// paper's 0.98GB-vs-10GB ratio, which the padding-overhead experiments
// (Figs. 4d, 16b) are sensitive to.
func RecipeConfig() Config { return Config{RowGroups: 12, RowsPerGroup: 500, Seed: 12} }

// UKPPConfig: 15 row groups × 16 columns = 240 chunks (Table 3); sized to
// ≈1.5/10 of the lineitem file as in the paper.
func UKPPConfig() Config { return Config{RowGroups: 15, RowsPerGroup: 4000, Seed: 13} }

// TaxiSeconds is the span of pickup timestamps in seconds (2015-2017).
const TaxiSeconds = 3 * 365 * 24 * 3600

// TaxiSchema returns the 20-column NYC yellow taxi schema.
func TaxiSchema() []lpq.Column {
	return []lpq.Column{
		{Name: "vendor_id", Type: lpq.Int64},
		{Name: "pickup_datetime", Type: lpq.Int64},
		{Name: "dropoff_datetime", Type: lpq.Int64},
		{Name: "passenger_count", Type: lpq.Int64},
		{Name: "trip_distance", Type: lpq.Float64},
		{Name: "pickup_longitude", Type: lpq.Float64},
		{Name: "pickup_latitude", Type: lpq.Float64},
		{Name: "rate_code", Type: lpq.Int64},
		{Name: "store_and_fwd", Type: lpq.String},
		{Name: "dropoff_longitude", Type: lpq.Float64},
		{Name: "dropoff_latitude", Type: lpq.Float64},
		{Name: "payment_type", Type: lpq.Int64},
		{Name: "fare_amount", Type: lpq.Float64},
		{Name: "extra", Type: lpq.Float64},
		{Name: "mta_tax", Type: lpq.Float64},
		{Name: "tip_amount", Type: lpq.Float64},
		{Name: "tolls_amount", Type: lpq.Float64},
		{Name: "improvement_surcharge", Type: lpq.Float64},
		{Name: "total_amount", Type: lpq.Float64},
		{Name: "trip_duration", Type: lpq.Int64},
	}
}

// Taxi generates the NYC yellow taxi dataset.
func Taxi(cfg Config) ([]byte, error) {
	w := lpq.NewWriter(TaxiSchema(), lpq.DefaultWriterOptions())
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.RowsPerGroup
	rows := cfg.RowGroups * n
	if rows == 0 {
		return nil, fmt.Errorf("datasets: empty taxi config")
	}
	ts := int64(0)
	step := int64(TaxiSeconds) / int64(rows)
	if step < 1 {
		step = 1
	}
	for g := 0; g < cfg.RowGroups; g++ {
		vendor := make([]int64, n)
		pickup := make([]int64, n)
		dropoff := make([]int64, n)
		pax := make([]int64, n)
		dist := make([]float64, n)
		plon := make([]float64, n)
		plat := make([]float64, n)
		rate := make([]int64, n)
		fwd := make([]string, n)
		dlon := make([]float64, n)
		dlat := make([]float64, n)
		pay := make([]int64, n)
		fare := make([]float64, n)
		extra := make([]float64, n)
		mta := make([]float64, n)
		tip := make([]float64, n)
		tolls := make([]float64, n)
		surcharge := make([]float64, n)
		total := make([]float64, n)
		dur := make([]int64, n)
		for i := 0; i < n; i++ {
			vendor[i] = 1 + rng.Int63n(2)
			// Timestamps advance with second-level noise: high cardinality,
			// weakly compressible (ratio ≈1.6), the Q3 column.
			pickup[i] = ts + rng.Int63n(2*step+1)
			ts += step
			durSec := 120 + rng.Int63n(3600)
			dropoff[i] = pickup[i] + durSec
			dur[i] = durSec
			pax[i] = 1 + rng.Int63n(6)
			dist[i] = float64(rng.Intn(3000)) / 100
			plon[i] = -74.02 + float64(rng.Intn(2000))/10000
			plat[i] = 40.60 + float64(rng.Intn(2000))/10000
			rate[i] = 1 + rng.Int63n(6)
			if rng.Intn(100) == 0 {
				fwd[i] = "Y"
			} else {
				fwd[i] = "N"
			}
			dlon[i] = -74.02 + float64(rng.Intn(2000))/10000
			dlat[i] = 40.60 + float64(rng.Intn(2000))/10000
			pay[i] = 1 + rng.Int63n(4)
			// Fares cluster on a handful of metered price points, so
			// dictionary encoding crushes them. The paper reports ratio
			// ≈152 on the real file; this generator reaches ≈20, which
			// preserves what the evaluation depends on: the Q4 cost-model
			// product selectivity × compressibility stays well above 1.
			fare[i] = fareValues[rng.Intn(len(fareValues))]
			extra[i] = []float64{0, 0.5, 1}[rng.Intn(3)]
			mta[i] = 0.5
			tip[i] = math.Round(fare[i]*[]float64{0, 0.1, 0.15, 0.2}[rng.Intn(4)]*2) / 2
			tolls[i] = []float64{0, 0, 0, 5.54}[rng.Intn(4)]
			surcharge[i] = 0.3
			total[i] = fare[i] + extra[i] + mta[i] + tip[i] + tolls[i] + surcharge[i]
		}
		cols := []lpq.ColumnData{
			lpq.IntColumn(vendor), lpq.IntColumn(pickup), lpq.IntColumn(dropoff),
			lpq.IntColumn(pax), lpq.FloatColumn(dist), lpq.FloatColumn(plon),
			lpq.FloatColumn(plat), lpq.IntColumn(rate), lpq.StringColumn(fwd),
			lpq.FloatColumn(dlon), lpq.FloatColumn(dlat), lpq.IntColumn(pay),
			lpq.FloatColumn(fare), lpq.FloatColumn(extra), lpq.FloatColumn(mta),
			lpq.FloatColumn(tip), lpq.FloatColumn(tolls), lpq.FloatColumn(surcharge),
			lpq.FloatColumn(total), lpq.IntColumn(dur),
		}
		if err := w.WriteRowGroup(cols); err != nil {
			return nil, err
		}
	}
	return w.Finish()
}

// TaxiQ3 is Table 4's Q3 ("how many rides took place every day in 2015"):
// one filter on the weakly-compressible timestamp column at ≈37.5%
// selectivity, projecting the timestamps.
func TaxiQ3() string {
	cutoff := int64(0.375 * TaxiSeconds)
	return fmt.Sprintf("SELECT pickup_datetime FROM taxi WHERE pickup_datetime < %d", cutoff)
}

// TaxiQ4 is Table 4's Q4 ("average fare amount in January 2015"): ≈6.3%
// selectivity, projecting the timestamp column and aggregating the highly
// compressible fare column (whose projection pushdown the cost model
// disables, §6.2).
func TaxiQ4() string {
	cutoff := int64(0.063 * TaxiSeconds)
	return fmt.Sprintf("SELECT pickup_datetime, AVG(fare_amount), fare_amount FROM taxi WHERE pickup_datetime < %d", cutoff)
}

// RecipeSchema returns the 7-column recipeNLG schema.
func RecipeSchema() []lpq.Column {
	return []lpq.Column{
		{Name: "id", Type: lpq.Int64},
		{Name: "title", Type: lpq.String},
		{Name: "ingredients", Type: lpq.String},
		{Name: "directions", Type: lpq.String},
		{Name: "link", Type: lpq.String},
		{Name: "source", Type: lpq.String},
		{Name: "ner", Type: lpq.String},
	}
}

var recipeWords = []string{
	"flour", "sugar", "butter", "salt", "pepper", "onion", "garlic", "stir",
	"whisk", "bake", "simmer", "chop", "dice", "mince", "saute", "boil",
	"oven", "degrees", "minutes", "until", "golden", "brown", "tender",
	"combine", "mixture", "bowl", "pan", "skillet", "heat", "medium",
	"cream", "cheese", "chicken", "beef", "tomato", "basil", "oregano",
}

func randText(rng *rand.Rand, minWords, maxWords int) string {
	n := minWords + rng.Intn(maxWords-minWords+1)
	out := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			out += " "
		}
		out += recipeWords[rng.Intn(len(recipeWords))]
	}
	return out
}

// RecipeNLG generates the recipeNLG dataset: text-dominated columns with a
// strongly skewed chunk-size distribution (Fig. 4c) — directions and
// ingredients dwarf the id and source columns.
func RecipeNLG(cfg Config) ([]byte, error) {
	w := lpq.NewWriter(RecipeSchema(), lpq.DefaultWriterOptions())
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.RowsPerGroup
	id := int64(0)
	for g := 0; g < cfg.RowGroups; g++ {
		ids := make([]int64, n)
		title := make([]string, n)
		ingredients := make([]string, n)
		directions := make([]string, n)
		link := make([]string, n)
		source := make([]string, n)
		ner := make([]string, n)
		for i := 0; i < n; i++ {
			ids[i] = id
			id++
			title[i] = randText(rng, 2, 6)
			ingredients[i] = randText(rng, 20, 60)
			directions[i] = randText(rng, 50, 160)
			link[i] = fmt.Sprintf("www.recipes.example/%d/%x", id, rng.Int63())
			source[i] = []string{"Gathered", "Recipes1M"}[rng.Intn(2)]
			ner[i] = randText(rng, 4, 12)
		}
		cols := []lpq.ColumnData{
			lpq.IntColumn(ids), lpq.StringColumn(title), lpq.StringColumn(ingredients),
			lpq.StringColumn(directions), lpq.StringColumn(link),
			lpq.StringColumn(source), lpq.StringColumn(ner),
		}
		if err := w.WriteRowGroup(cols); err != nil {
			return nil, err
		}
	}
	return w.Finish()
}

// UKPPSchema returns the 16-column UK property prices schema.
func UKPPSchema() []lpq.Column {
	return []lpq.Column{
		{Name: "transaction_id", Type: lpq.String},
		{Name: "price", Type: lpq.Int64},
		{Name: "date", Type: lpq.Int64},
		{Name: "postcode", Type: lpq.String},
		{Name: "property_type", Type: lpq.String},
		{Name: "old_new", Type: lpq.String},
		{Name: "duration", Type: lpq.String},
		{Name: "paon", Type: lpq.Int64},
		{Name: "saon", Type: lpq.String},
		{Name: "street", Type: lpq.String},
		{Name: "locality", Type: lpq.String},
		{Name: "town", Type: lpq.String},
		{Name: "district", Type: lpq.String},
		{Name: "county", Type: lpq.String},
		{Name: "ppd_category", Type: lpq.String},
		{Name: "record_status", Type: lpq.String},
	}
}

// fareValues are the metered price points taxi fares cluster on.
var fareValues = []float64{4.5, 6, 7.5, 9.5, 12, 15.5, 22, 45}

var (
	streetNames = []string{"HIGH STREET", "STATION ROAD", "MAIN STREET", "CHURCH LANE",
		"VICTORIA ROAD", "GREEN LANE", "MANOR ROAD", "KINGS ROAD", "QUEENS AVENUE", "THE CRESCENT"}
	towns    = []string{"LONDON", "MANCHESTER", "BIRMINGHAM", "LEEDS", "BRISTOL", "YORK", "OXFORD", "CAMBRIDGE"}
	counties = []string{"GREATER LONDON", "GREATER MANCHESTER", "WEST MIDLANDS", "WEST YORKSHIRE", "AVON"}
)

// UKPP generates the UK property prices dataset: a mix of a
// near-incompressible transaction-id column, skewed integer prices, and
// low-cardinality address columns.
func UKPP(cfg Config) ([]byte, error) {
	w := lpq.NewWriter(UKPPSchema(), lpq.DefaultWriterOptions())
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.RowsPerGroup
	for g := 0; g < cfg.RowGroups; g++ {
		txid := make([]string, n)
		price := make([]int64, n)
		date := make([]int64, n)
		postcode := make([]string, n)
		ptype := make([]string, n)
		oldnew := make([]string, n)
		duration := make([]string, n)
		paon := make([]int64, n)
		saon := make([]string, n)
		street := make([]string, n)
		locality := make([]string, n)
		town := make([]string, n)
		district := make([]string, n)
		county := make([]string, n)
		ppdcat := make([]string, n)
		status := make([]string, n)
		for i := 0; i < n; i++ {
			txid[i] = fmt.Sprintf("{%08X-%04X-%04X-%012X}", rng.Uint32(), rng.Intn(1<<16), rng.Intn(1<<16), rng.Int63n(1<<48))
			// Log-normal-ish price distribution.
			price[i] = int64(50000 * math.Exp(rng.NormFloat64()*0.7+0.5))
			date[i] = rng.Int63n(9000) // days since 1995
			postcode[i] = fmt.Sprintf("%s%d %d%s%s",
				[]string{"SW", "NW", "M", "LS", "BS", "YO", "OX", "CB"}[rng.Intn(8)],
				1+rng.Intn(20), 1+rng.Intn(9),
				string(rune('A'+rng.Intn(26))), string(rune('A'+rng.Intn(26))))
			ptype[i] = []string{"D", "S", "T", "F", "O"}[rng.Intn(5)]
			oldnew[i] = []string{"Y", "N"}[rng.Intn(2)]
			duration[i] = []string{"F", "L"}[rng.Intn(2)]
			paon[i] = 1 + rng.Int63n(300)
			if rng.Intn(10) == 0 {
				saon[i] = fmt.Sprintf("FLAT %d", 1+rng.Intn(40))
			}
			street[i] = streetNames[rng.Intn(len(streetNames))]
			locality[i] = ""
			town[i] = towns[rng.Intn(len(towns))]
			district[i] = towns[rng.Intn(len(towns))]
			county[i] = counties[rng.Intn(len(counties))]
			ppdcat[i] = []string{"A", "B"}[rng.Intn(2)]
			status[i] = "A"
		}
		cols := []lpq.ColumnData{
			lpq.StringColumn(txid), lpq.IntColumn(price), lpq.IntColumn(date),
			lpq.StringColumn(postcode), lpq.StringColumn(ptype), lpq.StringColumn(oldnew),
			lpq.StringColumn(duration), lpq.IntColumn(paon), lpq.StringColumn(saon),
			lpq.StringColumn(street), lpq.StringColumn(locality), lpq.StringColumn(town),
			lpq.StringColumn(district), lpq.StringColumn(county), lpq.StringColumn(ppdcat),
			lpq.StringColumn(status),
		}
		if err := w.WriteRowGroup(cols); err != nil {
			return nil, err
		}
	}
	return w.Finish()
}

// ZipfSizes samples n chunk sizes in [min, max] from a Zipf-like
// distribution with skew s (s = 0 is uniform) — the synthetic chunk-size
// generator of Fig. 16a.
func ZipfSizes(rng *rand.Rand, s float64, n int, minSize, maxSize uint64) []uint64 {
	out := make([]uint64, n)
	if s <= 0 {
		for i := range out {
			out[i] = minSize + uint64(rng.Int63n(int64(maxSize-minSize+1)))
		}
		return out
	}
	// Inverse-CDF sampling over a discretized power-law: rank r has weight
	// 1/r^s over the size range.
	const buckets = 1024
	weights := make([]float64, buckets)
	totalW := 0.0
	for r := 0; r < buckets; r++ {
		weights[r] = 1 / math.Pow(float64(r+1), s)
		totalW += weights[r]
	}
	span := float64(maxSize - minSize)
	for i := range out {
		u := rng.Float64() * totalW
		acc := 0.0
		r := 0
		for ; r < buckets-1; r++ {
			acc += weights[r]
			if acc >= u {
				break
			}
		}
		frac := float64(r) / float64(buckets-1)
		out[i] = minSize + uint64(frac*span)
	}
	return out
}
