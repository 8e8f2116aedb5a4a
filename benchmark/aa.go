package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// quartiles returns the first and third quartile of vals the way Python's
// statistics.quantiles(vals, n=4) does (the exclusive method), which is what
// the acceptance check of this benchmark uses.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := len(s) + 1
		j, delta := i*m/4, i*m%4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(vals []float64) float64 {
	q1, q3 := quartiles(vals)
	return (q3 - q1) / median(vals)
}

// runOnce runs this binary on one workload and seed and returns its result.
func runOnce(exe, workload string, seed int64, seconds float64) (result, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	if !res.Correct {
		return result{}, fmt.Errorf("%s seed %d: %d of %d ops failed", workload, seed, res.Failed, res.Attempted)
	}
	return res, nil
}

// runAA makes two sets of n end-to-end runs per workload, each run in its
// own process and on its own seed, and holds every metric to its bound the
// way the acceptance check does: within a set the quartile distance must
// stay within the bound (set-up time excepted), and the second set's median
// may not be worse than the first's by more than the bound. It returns the
// process exit code.
func runAA(defs []workloadDef, n int, seed int64, seconds float64) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	// values[set][workload][metric] collects one value per run.
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for _, def := range defs {
			values[set][def.name] = map[string][]float64{}
			for r := 0; r < n; r++ {
				s := seed + int64(set*n+r)
				res, err := runOnce(exe, def.name, s, seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
					return 1
				}
				fmt.Fprintf(os.Stderr, "set %d %s seed %d done\n", set+1, def.name, s)
				for name, m := range res.Metrics {
					values[set][def.name][name] = append(values[set][def.name][name], m.Value)
				}
			}
		}
	}
	// Every run made is listed before the verdicts.
	for _, def := range defs {
		for _, m := range endToEndSpec {
			for set := range values {
				fmt.Printf("%s %s set %d:", def.name, m.name, set+1)
				for _, v := range values[set][def.name][m.name] {
					fmt.Printf(" %.6g", v)
				}
				fmt.Println()
			}
		}
	}
	fmt.Printf("%-17s %-27s %12s %12s %8s %8s %8s %7s  %s\n",
		"workload", "metric", "median 1", "median 2", "spread 1", "spread 2", "worse by", "bound", "verdict")
	status := 0
	for _, def := range defs {
		for _, m := range endToEndSpec {
			a, b := values[0][def.name][m.name], values[1][def.name][m.name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if m.better == "higher" {
				worse = -worse
			}
			sa, sb := spread(a), spread(b)
			verdict := "ok"
			switch {
			case worse > m.bound, m.name != "setup_s" && (sa > m.bound || sb > m.bound):
				verdict = "OUTSIDE"
				status = 1
			case m.name != "setup_s" && (sa > m.bound/3 || sb > m.bound/3):
				verdict = "ok, spread above a third of the bound"
			}
			fmt.Printf("%-17s %-27s %12.4f %12.4f %7.2f%% %7.2f%% %7.2f%% %6.0f%%  %s\n",
				def.name, m.name, ma, mb, 100*sa, 100*sb, 100*worse, 100*m.bound, verdict)
		}
	}
	return status
}
