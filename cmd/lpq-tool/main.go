// lpq-tool works with lpq analytics objects on the local filesystem:
// inspect footers, convert CSV data, dump rows, and generate the
// evaluation datasets.
//
// Usage:
//
//	lpq-tool inspect <file.lpq>
//	lpq-tool convert <in.csv> <out.lpq> [-rowgroup 100000] [-sep ,]
//	lpq-tool head <file.lpq> [-n 10]
//	lpq-tool gen  <lineitem|taxi|recipenlg|ukpp> <out.lpq>
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"github.com/fusionstore/fusion/internal/colenc"
	"github.com/fusionstore/fusion/internal/datasets"
	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/tpch"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "inspect":
		cmdInspect(os.Args[2:])
	case "convert":
		cmdConvert(os.Args[2:])
	case "head":
		cmdHead(os.Args[2:])
	case "gen":
		cmdGen(os.Args[2:])
	default:
		usage()
	}
}

func cmdInspect(args []string) {
	if len(args) != 1 {
		usage()
	}
	data, err := os.ReadFile(args[0])
	die(err)
	f, err := lpq.Open(data)
	die(err)
	footer := f.Footer()
	fmt.Printf("%s: %d bytes, %d columns, %d row groups, %d rows, %d chunks\n\n",
		args[0], len(data), len(footer.Columns), len(footer.RowGroups),
		footer.NumRows(), footer.NumChunks())
	fmt.Printf("%-4s %-24s %-8s %-20s %12s %12s %8s\n", "id", "column", "type", "encoding", "disk bytes", "raw bytes", "ratio")
	for ci, col := range footer.Columns {
		var disk, raw uint64
		for _, rg := range footer.RowGroups {
			disk += rg.Chunks[ci].Size
			raw += rg.Chunks[ci].RawSize
		}
		ratio := 0.0
		if disk > 0 {
			ratio = float64(raw) / float64(disk)
		}
		fmt.Printf("%-4d %-24s %-8s %-20s %12d %12d %7.1fx\n", ci, col.Name, col.Type, pageKinds(f, ci), disk, raw, ratio)
	}
}

// pageKinds names the kinds of column ci's chunks, in the order the row groups
// first use them, joined by "+". A frame-of-reference column with delta pages
// says how many of its pages they are: "FOR·Δ 30/30 pages".
func pageKinds(f *lpq.File, ci int) string {
	footer := f.Footer()
	var kinds []string
	var delta, pages int
	for rg, g := range footer.RowGroups {
		m := g.Chunks[ci]
		if name := m.Encoding.String(); !slices.Contains(kinds, name) {
			kinds = append(kinds, name)
		}
		if m.Encoding != colenc.FOR {
			continue
		}
		raw, err := f.ChunkBytes(rg, ci)
		die(err)
		c, err := lpq.OpenChunk(footer.Columns[ci].Type, m, raw)
		die(err)
		d, n := c.DeltaPages()
		delta, pages = delta+d, pages+n
		c.Release()
	}
	if i := slices.Index(kinds, colenc.FOR.String()); i >= 0 && delta > 0 {
		kinds[i] = fmt.Sprintf("FOR·Δ %d/%d pages", delta, pages)
	}
	return strings.Join(kinds, "+")
}

func cmdConvert(args []string) {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	rowgroup := fs.Int("rowgroup", 100000, "rows per row group")
	sep := fs.String("sep", ",", "field separator")
	die(fs.Parse(args))
	rest := fs.Args()
	if len(rest) != 2 {
		usage()
	}
	in, err := os.Open(rest[0])
	die(err)
	defer in.Close()
	opts := lpq.CSVOptions{RowGroupRows: *rowgroup}
	if *sep != "" {
		opts.Comma = rune((*sep)[0])
	}
	data, err := lpq.FromCSV(in, opts)
	die(err)
	die(os.WriteFile(rest[1], data, 0o644))
	fmt.Printf("wrote %s: %d bytes\n", rest[1], len(data))
}

func cmdHead(args []string) {
	fs := flag.NewFlagSet("head", flag.ExitOnError)
	n := fs.Int("n", 10, "rows to print")
	die(fs.Parse(args))
	rest := fs.Args()
	if len(rest) != 1 {
		usage()
	}
	data, err := os.ReadFile(rest[0])
	die(err)
	f, err := lpq.Open(data)
	die(err)
	footer := f.Footer()
	names := make([]string, len(footer.Columns))
	cols := make([]lpq.ColumnData, len(footer.Columns))
	for ci, c := range footer.Columns {
		names[ci] = c.Name
		col, err := f.ReadChunk(0, ci)
		die(err)
		cols[ci] = col
	}
	fmt.Println(strings.Join(names, "\t"))
	limit := min(*n, footer.RowGroups[0].NumRows)
	for row := 0; row < limit; row++ {
		cells := make([]string, len(cols))
		for ci, col := range cols {
			switch col.Type {
			case lpq.Int64:
				cells[ci] = strconv.FormatInt(col.Ints[row], 10)
			case lpq.Float64:
				cells[ci] = strconv.FormatFloat(col.Floats[row], 'g', -1, 64)
			default:
				cells[ci] = col.Strings[row]
			}
		}
		fmt.Println(strings.Join(cells, "\t"))
	}
}

func cmdGen(args []string) {
	if len(args) != 2 {
		usage()
	}
	gen, ok := generators[args[0]]
	if !ok {
		usage()
	}
	data, err := gen()
	die(err)
	die(os.WriteFile(args[1], data, 0o644))
	fmt.Printf("wrote %s: %d bytes\n", args[1], len(data))
}

// generators are the datasets gen writes, each at its default scale.
var generators = map[string]func() ([]byte, error){
	"lineitem":  func() ([]byte, error) { return tpch.Generate(tpch.DefaultConfig()) },
	"taxi":      func() ([]byte, error) { return datasets.Taxi(datasets.TaxiConfig()) },
	"recipenlg": func() ([]byte, error) { return datasets.RecipeNLG(datasets.RecipeConfig()) },
	"ukpp":      func() ([]byte, error) { return datasets.UKPP(datasets.UKPPConfig()) },
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "lpq-tool:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  lpq-tool inspect <file.lpq>
  lpq-tool convert [-rowgroup N] [-sep ,] <in.csv> <out.lpq>
  lpq-tool head [-n 10] <file.lpq>
  lpq-tool gen <lineitem|taxi|recipenlg|ukpp> <out.lpq>`)
	os.Exit(2)
}
