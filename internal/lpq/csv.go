package lpq

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// CSVOptions configure FromCSV.
type CSVOptions struct {
	// RowGroupRows is the number of rows per row group (default 100000).
	RowGroupRows int
	// Comma is the field separator (default ',').
	Comma rune
}

// FromCSV converts CSV input (first record = header) into an lpq object,
// inferring each column's type from its values: a column parses as Int64 if
// every non-empty value is a base-10 integer, as Float64 if every value is
// numeric, and as String otherwise. Empty cells become 0 / 0.0 / "". The
// object is written with DefaultWriterOptions.
//
// This is the "convert them to Parquet format" step of the paper's dataset
// preparation (§6), available for arbitrary user data via cmd/lpq-tool.
func FromCSV(r io.Reader, opts CSVOptions) ([]byte, error) {
	if opts.RowGroupRows <= 0 {
		opts.RowGroupRows = 100000
	}
	cr := csv.NewReader(r)
	if opts.Comma != 0 {
		cr.Comma = opts.Comma
	}
	// Every record must have the header's fields (csv.Reader's default).
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("lpq: reading CSV: %w", err)
	}
	if len(records) < 2 {
		return nil, fmt.Errorf("lpq: CSV has %d records, want a header and data rows", len(records))
	}
	header, records := records[0], records[1:]
	types := inferTypes(header, records)
	schema := make([]Column, len(header))
	for i, name := range header {
		schema[i] = Column{Name: name, Type: types[i]}
	}
	w := NewWriter(schema, DefaultWriterOptions())
	for start := 0; start < len(records); start += opts.RowGroupRows {
		end := min(start+opts.RowGroupRows, len(records))
		cols, err := columnsFor(schema, records[start:end])
		if err != nil {
			return nil, err
		}
		if err := w.WriteRowGroup(cols); err != nil {
			return nil, err
		}
	}
	return w.Finish()
}

// inferTypes picks the narrowest type each column's values all fit.
func inferTypes(header []string, records [][]string) []Type {
	types := make([]Type, len(header))
	for col := range header {
		t, empty := Int64, true // t widens as values fail to parse
		for _, rec := range records {
			v := rec[col]
			if v == "" {
				continue
			}
			empty = false
			if t == Int64 {
				if _, err := strconv.ParseInt(v, 10, 64); err != nil {
					t = Float64
				}
			}
			if t == Float64 {
				if _, err := strconv.ParseFloat(v, 64); err != nil {
					t = String
					break
				}
			}
		}
		if types[col] = t; empty {
			types[col] = String
		}
	}
	return types
}

func columnsFor(schema []Column, records [][]string) ([]ColumnData, error) {
	cols := make([]ColumnData, len(schema))
	for ci, sc := range schema {
		cols[ci] = MakeColumn(sc.Type, len(records))
		for ri, rec := range records {
			var err error
			switch v := rec[ci]; {
			case sc.Type == String:
				cols[ci].Strings[ri] = v
			case v == "":
			case sc.Type == Int64:
				cols[ci].Ints[ri], err = strconv.ParseInt(v, 10, 64)
			default:
				cols[ci].Floats[ri], err = strconv.ParseFloat(v, 64)
			}
			if err != nil {
				return nil, fmt.Errorf("lpq: column %s row %d: %w", sc.Name, ri, err)
			}
		}
	}
	return cols, nil
}
