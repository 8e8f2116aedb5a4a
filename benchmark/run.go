package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// runConfig fixes how a run measures.
type runConfig struct {
	seed     int64
	window   time.Duration // timed window
	warmup   time.Duration // run before it and discarded
	setups   int           // set-up repetitions at least; setup_s is their median
	setupFor time.Duration // repeat the set-up until it has taken this long in all
	sz       sizes
	kernel   time.Duration // how long a traced run times each stand-alone kernel
	traceTo  string        // span file of a traced run, "" for none
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations attempted and failed. An error, a refusal and a
// verification mismatch all fail the op, and a failed op contributes no
// latency sample.
type tally struct {
	attempted, failed atomic.Int64

	mu    sync.Mutex
	first error
}

// record counts one op and reports whether it succeeded.
func (t *tally) record(err error) bool {
	t.attempted.Add(1)
	if err == nil {
		return true
	}
	t.failed.Add(1)
	t.mu.Lock()
	if t.first == nil {
		t.first = err
	}
	t.mu.Unlock()
	return false
}

// clientStats is what one client loop measured.
type clientStats struct {
	lat       []time.Duration
	done      []time.Duration // when each sample's op completed, from the loop's start
	templates []int           // template of each latency sample
	late      []time.Duration // generator lateness per op, open loop only
	payload   uint64          // verified bytes moved
	next      int             // index of the op after the last one issued
}

// runClient drives one client for dur, starting at op index first. A closed
// loop issues ops until the deadline passes and lets the last one finish; an
// open loop issues exactly rate×dur ops on schedule and times each from the
// moment it was due.
func runClient(ctx context.Context, spec clientSpec, first int, dur time.Duration, t *tally) clientStats {
	st := clientStats{next: first}
	start := time.Now()
	issue := func(from time.Time) {
		out, err := spec.op(ctx, st.next)
		lat := time.Since(from)
		st.next++
		if err == nil && out.check != nil {
			err = out.check()
		}
		if t.record(err) {
			st.lat = append(st.lat, lat)
			st.done = append(st.done, time.Since(start))
			st.templates = append(st.templates, out.template)
			st.payload += out.payload
		}
	}
	if spec.rate == 0 {
		for deadline := start.Add(dur); time.Now().Before(deadline); {
			issue(time.Now())
		}
		return st
	}
	p := newPacer(start, spec.rate)
	for k, n := 0, int(spec.rate*dur.Seconds()); k < n; k++ {
		due, late := p.wait(k)
		st.late = append(st.late, late)
		issue(due)
	}
	return st
}

// runWindow runs every client of a workload concurrently for dur and
// returns their statistics and the wall time until the last one stopped.
func runWindow(ctx context.Context, clients []clientSpec, first []int, dur time.Duration, t *tally) ([]clientStats, time.Duration) {
	stats := make([]clientStats, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stats[c] = runClient(ctx, clients[c], first[c], dur, t)
		}(c)
	}
	wg.Wait()
	return stats, time.Since(start)
}

// maxSetups caps the set-up repetitions of a run.
const maxSetups = 15

// setUp builds the system under test — nodes, coordinator, preloaded
// objects — at least cfg.setups times, and again until the set-ups have
// taken cfg.setupFor together, so that a set-up of a tenth of a second is
// timed more often than one of half a second. It returns the last system
// and the seconds each set-up took.
func setUp(ctx context.Context, inst *instance, cfg runConfig) (*env, []float64, error) {
	var e *env
	var secs []float64
	began := time.Now()
	for k := 0; k < cfg.setups || (k < maxSetups && time.Since(began) < cfg.setupFor); k++ {
		if e != nil {
			e.close()
		}
		start := time.Now()
		var err error
		if e, err = newEnv(); err != nil {
			return nil, nil, err
		}
		if err := inst.preload(ctx, e); err != nil {
			e.close()
			return nil, nil, fmt.Errorf("preload: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return e, secs, nil
}

// runEndToEnd measures a workload with every tap off and reports the
// end-to-end metrics.
func runEndToEnd(ctx context.Context, def workloadDef, cfg runConfig, log io.Writer) (result, error) {
	inst, err := def.build(cfg.seed, cfg.sz)
	if err != nil {
		return result{}, fmt.Errorf("generating inputs: %w", err)
	}
	e, setupSecs, err := setUp(ctx, inst, cfg)
	if err != nil {
		return result{}, err
	}
	defer e.close()
	clients := inst.clients(e)

	// Start every run from a collected heap: the discarded set-ups left
	// garbage whose collection would otherwise land somewhere in the window.
	runtime.GC()
	var t tally
	warm, _ := runWindow(ctx, clients, make([]int, len(clients)), cfg.warmup, &t)
	first := make([]int, len(clients))
	for c := range warm {
		first[c] = warm[c].next
	}
	callsBefore, bytesBefore := e.client.calls.Load(), e.client.wireBytes.Load()
	stats, elapsed := runWindow(ctx, clients, first, cfg.window, &t)
	calls, wire := e.client.calls.Load()-callsBefore, e.client.wireBytes.Load()-bytesBefore
	stored, live := e.storedBytes(), inst.liveBytes()
	if inst.finish != nil {
		attempted, failed := inst.finish(ctx, e)
		t.attempted.Add(int64(attempted))
		t.failed.Add(int64(failed))
	}

	var lat, done, bgLat, late []time.Duration
	var templates []int
	var payload uint64
	for c, st := range stats {
		late = append(late, st.late...)
		if !clients[c].primary {
			bgLat = append(bgLat, st.lat...)
			continue
		}
		lat = append(lat, st.lat...)
		done = append(done, st.done...)
		templates = append(templates, st.templates...)
		payload += st.payload
	}
	if len(lat) == 0 {
		return result{}, fmt.Errorf("no measured op succeeded (first error: %v)", t.first)
	}
	ops := float64(len(lat))
	res := result{
		Correct:   t.failed.Load() == 0,
		Attempted: t.attempted.Load(),
		Failed:    t.failed.Load(),
		Metrics: map[string]metric{
			"setup_s":                    {median(setupSecs), "s"},
			"op_p50_ms":                  {segmentedP50(lat, done, templates, len(inst.templates), cfg.window), "ms"},
			"ops_per_s":                  {ops / elapsed.Seconds(), "1/s"},
			"net_bytes_per_op":           {float64(wire) / ops, "B"},
			"stored_bytes_per_user_byte": {float64(stored) / float64(live), "ratio"},
		},
	}

	// The rest is for the reader of the log: sample counts, the tail, and
	// what the bounded metrics leave out.
	fmt.Fprintf(log, "workload %s seed %d: %d clients, window %.1fs after %.1fs warm-up, %d set-ups\n",
		def.name, cfg.seed, len(clients), elapsed.Seconds(), cfg.warmup.Seconds(), len(setupSecs))
	tm := summarize(lat)
	printMetrics(log, res.Metrics, map[string]int{
		"setup_s": len(setupSecs), "op_p50_ms": tm.N, "ops_per_s": tm.N, "net_bytes_per_op": tm.N,
	})
	fmt.Fprintf(log, "  tail latency             p90 %.3f ms, highest supported p%g %.3f ms (n=%d)\n",
		percentileOf(lat, 90), tm.TailPct, tm.Tail, tm.N)
	fmt.Fprintf(log, "  payload                  %.2f MB/s verified, %.1f calls/op\n",
		float64(payload)/1e6/elapsed.Seconds(), float64(calls)/ops)
	fmt.Fprintf(log, "  failed_share             %d/%d", res.Failed, res.Attempted)
	if t.first != nil {
		fmt.Fprintf(log, " (first: %v)", t.first)
	}
	fmt.Fprintln(log)
	if len(inst.templates) > 1 {
		for i, name := range inst.templates {
			var sub []time.Duration
			for k, tmpl := range templates {
				if tmpl == i {
					sub = append(sub, lat[k])
				}
			}
			s := summarize(sub)
			fmt.Fprintf(log, "  template %-16s p50 %.3f ms (n=%d)\n", name, s.P50, s.N)
		}
	}
	if len(bgLat) > 0 {
		s := summarize(bgLat)
		fmt.Fprintf(log, "  background client        p50 %.3f ms, p%g %.3f ms (n=%d)\n", s.P50, s.TailPct, s.Tail, s.N)
	}
	if len(late) > 0 {
		s := summarize(late)
		fmt.Fprintf(log, "  generator lateness       p50 %.1f us, p%g %.1f us (n=%d)\n", s.P50*1e3, s.TailPct, s.Tail*1e3, s.N)
	}
	return res, nil
}

// p50Segments is how many equal parts of the timed window op_p50_ms is the
// median of.
const p50Segments = 5

// segmentedP50 is the op_p50_ms of a run. Two rules shape it.
//
// The templates of a scan differ several-fold in latency, so the pooled
// median would sit in the gap between two of them and ignore the rest;
// instead each template's median is taken and the templates are averaged,
// so that every one weighs the same. With one template this is the median.
//
// On a shared machine a neighbour's burst slows a few seconds of a run. The
// window is cut into p50Segments parts by completion time, the value above
// is computed in each, and the median part is reported, which a burst
// shorter than half the window cannot move.
func segmentedP50(lat, done []time.Duration, templates []int, numTemplates int, window time.Duration) float64 {
	var parts []float64
	for seg := 0; seg < p50Segments; seg++ {
		var segLat []time.Duration
		var segTemplates []int
		for k, d := range done {
			at := int(d * p50Segments / window)
			if at >= p50Segments {
				at = p50Segments - 1 // the last ops end just after the deadline
			}
			if at == seg {
				segLat = append(segLat, lat[k])
				segTemplates = append(segTemplates, templates[k])
			}
		}
		if v, ok := templateMeanP50(segLat, segTemplates, numTemplates); ok {
			parts = append(parts, v)
		}
	}
	if len(parts) == 0 {
		// Too few ops for any part to hold every template: one part.
		v, _ := templateMeanP50(lat, templates, numTemplates)
		return v
	}
	return median(parts)
}

// templateMeanP50 averages the per-template medians of the samples; it
// fails when a template has no sample.
func templateMeanP50(lat []time.Duration, templates []int, numTemplates int) (float64, bool) {
	perTemplate := make([][]time.Duration, numTemplates)
	for k, t := range templates {
		perTemplate[t] = append(perTemplate[t], lat[k])
	}
	var sum float64
	for _, sub := range perTemplate {
		if len(sub) == 0 {
			return 0, false
		}
		sum += summarize(sub).P50
	}
	return sum / float64(numTemplates), true
}

// printMetrics lists metrics by name with unit and, where known, the sample
// count behind them.
func printMetrics(w io.Writer, ms map[string]metric, n map[string]int) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := ms[name]
		fmt.Fprintf(w, "  %-38s %14.4f %-6s", name, m.Value, m.Unit)
		if c, ok := n[name]; ok {
			fmt.Fprintf(w, " n=%d", c)
		}
		fmt.Fprintln(w)
	}
}
