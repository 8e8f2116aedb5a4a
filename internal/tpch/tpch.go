// Package tpch generates the TPC-H lineitem table as an lpq object, the
// primary evaluation dataset of the paper (§6). The generator is a
// deterministic, seeded dbgen workalike that reproduces the properties the
// evaluation depends on:
//
//   - 16 columns with the value distributions of the TPC-H specification
//     (column id order matches the spec and the paper's Figs. 6, 12, 13);
//   - a bimodal chunk-size profile: a few huge weakly-compressible chunks
//     (l_comment, l_extendedprice, l_partkey) and many tiny highly
//     compressed ones (l_linestatus, l_returnflag, l_linenumber), giving
//     compression ratios from ≈1.5 up to ≈60+ (Fig. 6: median 9.3, max
//     63.5);
//   - row-group structure matching the paper's files (10 row groups in the
//     full-scale configuration).
package tpch

import (
	"fmt"
	"math/rand"

	"github.com/fusionstore/fusion/internal/lpq"
)

// Column ids of the lineitem table, in schema order.
const (
	ColOrderKey = iota
	ColPartKey
	ColSuppKey
	ColLineNumber
	ColQuantity
	ColExtendedPrice
	ColDiscount
	ColTax
	ColReturnFlag
	ColLineStatus
	ColShipDate
	ColCommitDate
	ColReceiptDate
	ColShipInstruct
	ColShipMode
	ColComment
	NumColumns
)

// Schema returns the lineitem schema. Dates are Int64 days since
// 1992-01-01; prices are Float64.
func Schema() []lpq.Column {
	return []lpq.Column{
		{Name: "l_orderkey", Type: lpq.Int64},
		{Name: "l_partkey", Type: lpq.Int64},
		{Name: "l_suppkey", Type: lpq.Int64},
		{Name: "l_linenumber", Type: lpq.Int64},
		{Name: "l_quantity", Type: lpq.Int64},
		{Name: "l_extendedprice", Type: lpq.Float64},
		{Name: "l_discount", Type: lpq.Float64},
		{Name: "l_tax", Type: lpq.Float64},
		{Name: "l_returnflag", Type: lpq.String},
		{Name: "l_linestatus", Type: lpq.String},
		{Name: "l_shipdate", Type: lpq.Int64},
		{Name: "l_commitdate", Type: lpq.Int64},
		{Name: "l_receiptdate", Type: lpq.Int64},
		{Name: "l_shipinstruct", Type: lpq.String},
		{Name: "l_shipmode", Type: lpq.String},
		{Name: "l_comment", Type: lpq.String},
	}
}

// ShipDateDays is the span of l_shipdate values in days (the TPC-H range
// 1992-01-02 .. 1998-12-01). Selectivity-targeted queries derive their
// cutoffs from it.
const ShipDateDays = 2526

var (
	shipInstructs = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	shipModes     = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	commentWords  = []string{
		"furiously", "quickly", "carefully", "blithely", "slyly", "express",
		"pending", "regular", "special", "ironic", "final", "bold", "even",
		"accounts", "deposits", "packages", "requests", "instructions",
		"theodolites", "foxes", "pinto", "beans", "dependencies", "asymptotes",
		"sleep", "nag", "haggle", "wake", "cajole", "integrate", "boost",
		"against", "among", "across", "above", "along", "the", "quiet",
	}
)

// Config controls the generated file's scale.
type Config struct {
	// RowGroups is the number of row groups (paper full scale: 10).
	RowGroups int
	// RowsPerGroup is the rows per row group (paper full scale: 30M).
	RowsPerGroup int
	// Seed makes generation deterministic.
	Seed int64
	// Writer configures encoding; zero value means the paper's settings
	// (dictionary + Snappy).
	Writer lpq.WriterOptions
}

// DefaultConfig is a laptop-scale configuration preserving the full-scale
// file's structure: 10 row groups, 16 columns, 160 column chunks.
func DefaultConfig() Config {
	return Config{RowGroups: 10, RowsPerGroup: 60000, Seed: 7, Writer: lpq.DefaultWriterOptions()}
}

// Generate builds the lineitem lpq object.
func Generate(cfg Config) ([]byte, error) {
	if cfg.RowGroups <= 0 || cfg.RowsPerGroup <= 0 {
		return nil, fmt.Errorf("tpch: invalid scale %d x %d", cfg.RowGroups, cfg.RowsPerGroup)
	}
	if !cfg.Writer.Compress && !cfg.Writer.DisableDict {
		cfg.Writer = lpq.DefaultWriterOptions()
	}
	w := lpq.NewWriter(Schema(), cfg.Writer)
	rng := rand.New(rand.NewSource(cfg.Seed))
	orderKey := int64(1)
	lineNo := int64(1)
	for g := 0; g < cfg.RowGroups; g++ {
		n := cfg.RowsPerGroup
		cols := make([]lpq.ColumnData, NumColumns)
		orderkey := make([]int64, n)
		partkey := make([]int64, n)
		suppkey := make([]int64, n)
		linenumber := make([]int64, n)
		quantity := make([]int64, n)
		extprice := make([]float64, n)
		discount := make([]float64, n)
		tax := make([]float64, n)
		returnflag := make([]string, n)
		linestatus := make([]string, n)
		shipdate := make([]int64, n)
		commitdate := make([]int64, n)
		receiptdate := make([]int64, n)
		shipinstruct := make([]string, n)
		shipmode := make([]string, n)
		comment := make([]string, n)
		for i := 0; i < n; i++ {
			// Orders have 1-7 lineitems; orderkey repeats accordingly.
			if lineNo > int64(1+rng.Intn(7)) {
				orderKey++
				lineNo = 1
			}
			orderkey[i] = orderKey
			linenumber[i] = lineNo
			lineNo++
			partkey[i] = 1 + rng.Int63n(200000)
			suppkey[i] = 1 + rng.Int63n(10000)
			quantity[i] = 1 + rng.Int63n(50)
			// extendedprice = quantity * part price; prices are
			// near-unique floats (weakly compressible, Fig. 6).
			extprice[i] = float64(quantity[i]) * (900 + float64(rng.Intn(200000))/100)
			discount[i] = float64(rng.Intn(11)) / 100
			tax[i] = float64(rng.Intn(9)) / 100
			sd := rng.Int63n(ShipDateDays)
			shipdate[i] = sd
			commitdate[i] = sd + int64(rng.Intn(60)) - 30
			receiptdate[i] = sd + 1 + rng.Int63n(30)
			// returnflag depends on receiptdate (spec: R/A before the
			// current date, N after), giving the 3-value distribution.
			switch {
			case receiptdate[i] < ShipDateDays*17/24:
				if rng.Intn(2) == 0 {
					returnflag[i] = "R"
				} else {
					returnflag[i] = "A"
				}
			default:
				returnflag[i] = "N"
			}
			if shipdate[i] < ShipDateDays*3/4 {
				linestatus[i] = "F"
			} else {
				linestatus[i] = "O"
			}
			shipinstruct[i] = shipInstructs[rng.Intn(len(shipInstructs))]
			shipmode[i] = shipModes[rng.Intn(len(shipModes))]
			comment[i] = randComment(rng)
		}
		cols[ColOrderKey] = lpq.IntColumn(orderkey)
		cols[ColPartKey] = lpq.IntColumn(partkey)
		cols[ColSuppKey] = lpq.IntColumn(suppkey)
		cols[ColLineNumber] = lpq.IntColumn(linenumber)
		cols[ColQuantity] = lpq.IntColumn(quantity)
		cols[ColExtendedPrice] = lpq.FloatColumn(extprice)
		cols[ColDiscount] = lpq.FloatColumn(discount)
		cols[ColTax] = lpq.FloatColumn(tax)
		cols[ColReturnFlag] = lpq.StringColumn(returnflag)
		cols[ColLineStatus] = lpq.StringColumn(linestatus)
		cols[ColShipDate] = lpq.IntColumn(shipdate)
		cols[ColCommitDate] = lpq.IntColumn(commitdate)
		cols[ColReceiptDate] = lpq.IntColumn(receiptdate)
		cols[ColShipInstruct] = lpq.StringColumn(shipinstruct)
		cols[ColShipMode] = lpq.StringColumn(shipmode)
		cols[ColComment] = lpq.StringColumn(comment)
		if err := w.WriteRowGroup(cols); err != nil {
			return nil, err
		}
	}
	return w.Finish()
}

// randComment produces a 10-43 character pseudo-text comment (the TPC-H
// l_comment column), the table's dominant, weakly-compressible column.
func randComment(rng *rand.Rand) string {
	out := commentWords[rng.Intn(len(commentWords))]
	for len(out) < 10+rng.Intn(34) {
		out += " " + commentWords[rng.Intn(len(commentWords))]
	}
	return out
}

// MicrobenchQuery returns the paper's microbenchmark (§6): a single-column
// selection with a WHERE clause hitting approximately the given selectivity
// (a fraction in (0, 1]). The filter runs on l_shipdate, which is uniform,
// so the cutoff maps linearly to selectivity.
func MicrobenchQuery(column string, selectivity float64) string {
	cutoff := int64(selectivity * ShipDateDays)
	if cutoff < 1 {
		cutoff = 1
	}
	if cutoff >= ShipDateDays {
		return fmt.Sprintf("SELECT %s FROM lineitem WHERE l_shipdate >= 0", column)
	}
	return fmt.Sprintf("SELECT %s FROM lineitem WHERE l_shipdate < %d", column, cutoff)
}

// Q1 is the paper's "pricing summary report" adaptation (Table 4): one
// filter, six projected columns, ≈1.4% selectivity.
func Q1() string {
	span := float64(ShipDateDays)
	cutoff := int64(0.014 * span)
	return fmt.Sprintf("SELECT l_quantity, l_extendedprice, l_discount, l_tax, l_returnflag, l_linestatus "+
		"FROM lineitem WHERE l_shipdate < %d", cutoff)
}

// Q2 is the paper's "forecasting revenue change" adaptation (TPC-H Q6
// shape, Table 4): three filters, two projected columns, ≈5.4% selectivity.
func Q2() string {
	// shipdate window (~2 years of 7) × discount (5/11) × quantity (24/50)
	// ≈ 0.286 × 0.455 × 0.48 ≈ 0.0624 — close to the paper's 5.4%.
	span := float64(ShipDateDays)
	lo := int64(0.30 * span)
	hi := int64(0.586 * span)
	return fmt.Sprintf("SELECT l_extendedprice, l_discount FROM lineitem "+
		"WHERE l_shipdate >= %d AND l_shipdate < %d AND l_discount >= 0.06 AND l_quantity < 25", lo, hi)
}
