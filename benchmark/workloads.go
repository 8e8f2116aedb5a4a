package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"github.com/fusionstore/fusion/internal/loadgen"
	"github.com/fusionstore/fusion/internal/store"
	"github.com/fusionstore/fusion/internal/tpch"
)

// sizes scales the generated objects. fullSizes is what the benchmark
// measures; the smoke test passes smaller ones to stay inside its budget.
type sizes struct {
	rowGroups    int // lineitem row groups
	rowsPerGroup int // lineitem rows per row group
	smallRows    int // rows per row group of a small object (two row groups)
	smallObjects int // small objects, half of them overwritten
}

// fullSizes gives a 10-row-group, 16-column lineitem of ≈19 MB and small
// objects of ≈256 KiB.
var fullSizes = sizes{rowGroups: 10, rowsPerGroup: 60000, smallRows: 9000, smallObjects: 32}

// opOut is what one operation hands back to the runner.
type opOut struct {
	// check verifies the response; it runs after the latency timer stops.
	check func() error
	// payload is the user bytes the op moved: object bytes for Put and Get,
	// result bytes for a query.
	payload uint64
	// template indexes instance.templates, for per-template timings.
	template int
	query    *store.QueryStats
	put      *store.PutStats
}

// clientSpec is one client goroutine of a workload.
type clientSpec struct {
	// rate is the open-loop rate in ops per second; 0 means a closed loop
	// that issues the next op when the previous one returns.
	rate float64
	// primary marks the client whose ops are the workload's measured op;
	// the others are background load that is verified but not timed into
	// the op_* metrics.
	primary bool
	// op performs the client's i-th operation.
	op func(ctx context.Context, i int) (opOut, error)
}

// instance is a workload bound to its generated inputs.
type instance struct {
	// templates names the distinct op shapes a primary client cycles
	// through.
	templates []string
	// sample is an lpq object of the workload, the input of the stand-alone
	// kernel timings.
	sample []byte
	// preload stores the objects the workload starts from.
	preload func(ctx context.Context, e *env) error
	// clients binds the client loops to a running system.
	clients func(e *env) []clientSpec
	// serialPattern is the order in which the single-client traced pass
	// interleaves the clients' ops.
	serialPattern []int
	// liveBytes is the total size of the objects a reader can currently
	// resolve, the denominator of stored_bytes_per_user_byte.
	liveBytes func() uint64
	// finish verifies the final state after the clients stopped and returns
	// how many checks it made and how many failed.
	finish func(ctx context.Context, e *env) (attempted, failed int)
}

// workloadDef describes a workload before its inputs exist.
type workloadDef struct {
	name  string
	why   string
	build func(seed int64, sz sizes) (*instance, error)
}

// workloads lists every workload in the order `-workload all` runs them.
// The why strings are repeated in BENCHMARK.json.
var workloads = []workloadDef{
	{"scan_selective", "six selective query templates over one lineitem object: node-side decode and evaluation do nearly all the work and replies are small",
		func(seed int64, sz sizes) (*instance, error) { return buildScan(seed, sz, selectiveTemplates) }},
	{"scan_wide", "three templates that select most rows: adaptive pushdown declines, so bulk transfer and coordinator-side fetch, CRC, decode and merge dominate",
		func(seed int64, sz sizes) (*instance, error) { return buildScan(seed, sz, wideTemplates) }},
	{"object_put_large", "closed-loop overwrites of lineitem-sized objects: the put pipeline, FAC layout, erasure encode, CRC, bulk transfer and previous-epoch deletion",
		buildPutLarge},
	{"object_get_large", "closed-loop whole-object reads of lineitem-sized objects, each compared byte for byte: bulk transfer, CRC and reassembly with no query work",
		buildGetLarge},
	{"object_io_small", "paced overwrites of 256 KiB objects beside a paced reader: metadata quorum round trips, prepare and commit fan-out and per-frame cost dominate",
		buildSmall},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// putObject stores data under name through the streaming entry point.
func putObject(ctx context.Context, s *store.Store, name string, data []byte) (*store.PutStats, error) {
	return s.PutReader(ctx, name, bytes.NewReader(data), uint64(len(data)))
}

// lineitem generates the lineitem object of a seed.
func lineitem(seed int64, sz sizes) ([]byte, error) {
	cfg := tpch.DefaultConfig()
	cfg.RowGroups, cfg.RowsPerGroup, cfg.Seed = sz.rowGroups, sz.rowsPerGroup, seed
	return tpch.Generate(cfg)
}

// lineitemPair generates two distinct lineitem objects on two goroutines.
func lineitemPair(seed int64, sz sizes) ([2][]byte, error) {
	var out [2][]byte
	var errs [2]error
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i], errs[i] = lineitem(seed*2+int64(i), sz)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

//
// Scans.
//

// queryTemplate is one query shape; variants are its seeded instances.
type queryTemplate struct {
	name     string
	variants func(rng *rand.Rand) []string
}

func fixed(q string) func(*rand.Rand) []string {
	return func(*rand.Rand) []string { return []string{q} }
}

// selectiveTemplates are the paper's sweet spot: a few percent of the rows
// survive the filter, so pushdown runs and replies are KBs.
var selectiveTemplates = []queryTemplate{
	{"micro_price", func(rng *rand.Rand) []string {
		// Four selectivities, one from each quarter of 0.5–2%, so that a
		// seed moves the individual cut-offs but barely moves their mean.
		out := make([]string, 4)
		for j := range out {
			sel := 0.005 + (float64(j)+rng.Float64())/4*0.015
			out[j] = tpch.MicrobenchQuery("l_extendedprice", sel)
		}
		return out
	}},
	{"q1", fixed(tpch.Q1())},
	{"q2", fixed(tpch.Q2())},
	{"sum_avg_3leaf", fixed("SELECT SUM(l_extendedprice), AVG(l_discount) FROM lineitem " +
		"WHERE l_shipdate < 400 AND l_quantity < 10 AND l_discount >= 0.05")},
	{"group_returnflag", fixed("SELECT l_returnflag, COUNT(l_orderkey), SUM(l_extendedprice) FROM lineitem " +
		"GROUP BY l_returnflag ORDER BY l_returnflag")},
	{"top10_price", fixed("SELECT l_orderkey, l_extendedprice FROM lineitem ORDER BY l_extendedprice DESC LIMIT 10")},
}

// wideTemplates select most rows, so chunks travel to the coordinator.
var wideTemplates = []queryTemplate{
	{"comment_50", func(rng *rand.Rand) []string {
		return []string{tpch.MicrobenchQuery("l_comment", 0.49+0.02*rng.Float64())}
	}},
	{"price_90", func(rng *rand.Rand) []string {
		return []string{tpch.MicrobenchQuery("l_extendedprice", 0.89+0.02*rng.Float64())}
	}},
	{"project4_all", fixed("SELECT l_orderkey, l_partkey, l_extendedprice, l_comment FROM lineitem WHERE l_shipdate >= 0")},
}

// allTemplateNames lists every scan template; the per-layer metric list has
// one timing per name.
func allTemplateNames() []string {
	var out []string
	for _, t := range append(append([]queryTemplate(nil), selectiveTemplates...), wideTemplates...) {
		out = append(out, t.name)
	}
	return out
}

// scanObjectSeed generates the object both scans query. It does not follow
// the run's seed: the stats-driven planner decides grouped pushdown per row
// group from the chunk statistics, and on about one object in five it
// decides one row group the other way, which moves net_bytes_per_op by 7% —
// a step between seeds, not noise, and enough to hide a real change in the
// paper's traffic figure. The seed still draws the query parameters and the
// op order.
const scanObjectSeed = 7

func buildScan(seed int64, sz sizes, templates []queryTemplate) (*instance, error) {
	obj, err := lineitem(scanObjectSeed, sz)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(len(templates)) // the seed also fixes the op order
	names := make([]string, len(templates))
	variants := make([][]string, len(templates))
	var distinct []string
	for pos, t := range order {
		names[pos] = templates[t].name
		variants[pos] = templates[t].variants(rng)
		distinct = append(distinct, variants[pos]...)
	}
	refs, err := referenceResults(obj, distinct)
	if err != nil {
		return nil, err
	}
	inst := &instance{
		templates:     names,
		sample:        obj,
		serialPattern: []int{0},
		liveBytes:     func() uint64 { return uint64(len(obj)) },
		preload: func(ctx context.Context, e *env) error {
			_, err := putObject(ctx, e.store, "lineitem", obj)
			return err
		},
	}
	inst.clients = func(e *env) []clientSpec {
		specs := make([]clientSpec, 2)
		for c := range specs {
			c := c
			specs[c] = clientSpec{primary: true, op: func(ctx context.Context, i int) (opOut, error) {
				// The second client walks the cycle backwards: two clients in
				// step would pair each template with one fixed partner for
				// the whole run, and which partner would depend on the seed.
				t := i % len(names)
				if c == 1 {
					t = len(names) - 1 - t
				}
				vs := variants[t]
				q := vs[(i/len(names))%len(vs)]
				res, err := e.store.QueryContext(ctx, q)
				if err != nil {
					return opOut{template: t}, fmt.Errorf("%s: %w", names[t], err)
				}
				stats := res.Stats // a copy: a pointer into res would keep the whole result alive
				return opOut{
					template: t,
					query:    &stats,
					payload:  resultBytes(res),
					check:    func() error { return verifyQuery(res, refs[q]) },
				}, nil
			}}
		}
		return specs
	}
	return inst, nil
}

//
// Large-object I/O.
//

// largeNames is how many names each large-object client rotates over.
const largeNames = 2

func buildPutLarge(seed int64, sz sizes) (*instance, error) {
	objs, err := lineitemPair(seed, sz)
	if err != nil {
		return nil, err
	}
	// last[c][j] is the variant most recently acknowledged under client c's
	// j-th name. Each client writes only its own row, and finish reads it
	// after the clients have stopped.
	var last [2][largeNames]int
	name := func(c, j int) string { return fmt.Sprintf("put_c%d_%d", c, j) }
	inst := &instance{
		templates:     []string{"put"},
		sample:        objs[0],
		serialPattern: []int{0},
		preload: func(ctx context.Context, e *env) error {
			// Every timed Put then overwrites an epoch and deletes it.
			for c := range last {
				for j := range last[c] {
					if _, err := putObject(ctx, e.store, name(c, j), objs[1]); err != nil {
						return err
					}
					last[c][j] = 1
				}
			}
			return nil
		},
		liveBytes: func() uint64 {
			var n uint64
			for c := range last {
				for _, v := range last[c] {
					n += uint64(len(objs[v]))
				}
			}
			return n
		},
	}
	inst.clients = func(e *env) []clientSpec {
		specs := make([]clientSpec, 2)
		for c := range specs {
			c := c
			specs[c] = clientSpec{primary: true, op: func(ctx context.Context, i int) (opOut, error) {
				j, v := i%largeNames, (i/largeNames)%2
				st, err := putObject(ctx, e.store, name(c, j), objs[v])
				if err != nil {
					return opOut{}, err
				}
				last[c][j] = v
				return opOut{put: st, payload: uint64(len(objs[v]))}, nil
			}}
		}
		return specs
	}
	// A Put has no response to check, so the objects it left are read back
	// once the writers stop: every name must hold exactly the bytes of its
	// last acknowledged Put.
	inst.finish = func(ctx context.Context, e *env) (attempted, failed int) {
		for c := range last {
			for j, v := range last[c] {
				attempted++
				got, err := e.store.GetContext(ctx, name(c, j), 0, 0)
				if err != nil || verifyGet(got, objs[v]) != nil {
					failed++
				}
			}
		}
		return attempted, failed
	}
	return inst, nil
}

func buildGetLarge(seed int64, sz sizes) (*instance, error) {
	objs, err := lineitemPair(seed, sz)
	if err != nil {
		return nil, err
	}
	const n = 2 * largeNames
	name := func(j int) string { return fmt.Sprintf("get_%d", j) }
	inst := &instance{
		templates:     []string{"get"},
		sample:        objs[0],
		serialPattern: []int{0},
		preload: func(ctx context.Context, e *env) error {
			for j := 0; j < n; j++ {
				if _, err := putObject(ctx, e.store, name(j), objs[j%2]); err != nil {
					return err
				}
			}
			return nil
		},
		liveBytes: func() uint64 {
			return uint64(n/2) * uint64(len(objs[0])+len(objs[1]))
		},
	}
	inst.clients = func(e *env) []clientSpec {
		specs := make([]clientSpec, 2)
		for c := range specs {
			c := c
			specs[c] = clientSpec{primary: true, op: func(ctx context.Context, i int) (opOut, error) {
				j := (i + c*n/2) % n
				got, err := e.store.GetContext(ctx, name(j), 0, 0)
				if err != nil {
					return opOut{}, err
				}
				return opOut{
					payload: uint64(len(got)),
					check:   func() error { return verifyGet(got, objs[j%2]) },
				}, nil
			}}
		}
		return specs
	}
	return inst, nil
}

//
// Small-object I/O.
//

const (
	// smallPutRate and smallGetRate pace the two clients of object_io_small.
	// Both are open loops so that the op mix, and with it the load each
	// client puts on the other, is the same on every commit; a serial Put
	// of a small object takes about 10 ms here and a Get 1.5 ms, so the
	// rates keep each client about half busy.
	smallPutRate = 40
	smallGetRate = 160
	// smallVersions is how many distinct contents a mutable object cycles
	// through. Generating a version costs 10–20 ms, more than the Put that
	// stores it, so they are made before the run and version v of an object
	// holds content v mod smallVersions.
	smallVersions = 3
)

// smallObject is one object of object_io_small and its version counters.
type smallObject struct {
	name     string
	contents [][]byte // by version mod len(contents)
	// begun is the highest version whose Put was issued, committed the
	// highest whose Put returned. A Get that starts at committed = lo and
	// ends at begun = hi may return any version in [lo, hi] and nothing
	// else: old or new, never a hybrid, never older than acknowledged.
	begun, committed atomic.Int64
}

func (o *smallObject) content(ver int64) []byte {
	return o.contents[int(ver)%len(o.contents)]
}

// admissible returns the contents a read that saw the window [lo, hi] may
// return.
func (o *smallObject) admissible(lo, hi int64) [][]byte {
	var out [][]byte
	for v := lo; v <= hi && v < lo+int64(len(o.contents)); v++ {
		out = append(out, o.content(v))
	}
	return out
}

func buildSmall(seed int64, sz sizes) (*instance, error) {
	objs := make([]*smallObject, sz.smallObjects)
	mutable := sz.smallObjects / 2 // objects [0, mutable) are overwritten
	type job struct{ obj, ver int }
	var jobs []job
	for i := range objs {
		objs[i] = &smallObject{name: fmt.Sprintf("small_%02d", i)}
		versions := 1
		if i < mutable {
			versions = smallVersions
		}
		objs[i].contents = make([][]byte, versions)
		for v := 0; v < versions; v++ {
			jobs = append(jobs, job{i, v})
		}
	}
	// Generate on two goroutines; each job writes its own slot.
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := g; k < len(jobs); k += len(errs) {
				v, err := loadgen.GenVersion(seed, jobs[k].obj, jobs[k].ver, sz.smallRows)
				if err != nil {
					errs[g] = err
					return
				}
				objs[jobs[k].obj].contents[jobs[k].ver] = v.Data
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	readOrder := rand.New(rand.NewSource(seed)).Perm(len(objs))

	inst := &instance{
		templates: []string{"put_small"},
		sample:    objs[0].contents[0],
		// One Put for every smallGetRate/smallPutRate Gets, as in the run.
		serialPattern: []int{0, 1, 1, 1, 1},
		preload: func(ctx context.Context, e *env) error {
			for _, o := range objs {
				o.begun.Store(0)
				o.committed.Store(0)
				if _, err := putObject(ctx, e.store, o.name, o.content(0)); err != nil {
					return err
				}
			}
			return nil
		},
		liveBytes: func() uint64 {
			var n uint64
			for _, o := range objs {
				n += uint64(len(o.content(o.committed.Load())))
			}
			return n
		},
	}
	inst.clients = func(e *env) []clientSpec {
		writer := clientSpec{rate: smallPutRate, primary: true, op: func(ctx context.Context, i int) (opOut, error) {
			o := objs[i%mutable]
			ver := o.begun.Add(1)
			data := o.content(ver)
			st, err := putObject(ctx, e.store, o.name, data)
			if err != nil {
				return opOut{}, err
			}
			o.committed.Store(ver)
			return opOut{put: st, payload: uint64(len(data))}, nil
		}}
		reader := clientSpec{rate: smallGetRate, op: func(ctx context.Context, i int) (opOut, error) {
			o := objs[readOrder[i%len(readOrder)]]
			lo := o.committed.Load()
			got, err := e.store.GetContext(ctx, o.name, 0, 0)
			if err != nil {
				return opOut{}, err
			}
			hi := o.begun.Load()
			return opOut{
				payload: uint64(len(got)),
				check:   func() error { return verifyGet(got, o.admissible(lo, hi)...) },
			}, nil
		}}
		return []clientSpec{writer, reader}
	}
	return inst, nil
}
