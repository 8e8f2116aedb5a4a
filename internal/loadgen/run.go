package loadgen

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/faultnet"
	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/metrics"
	"github.com/fusionstore/fusion/internal/sched"
	"github.com/fusionstore/fusion/internal/sql"
	"github.com/fusionstore/fusion/internal/store"
	"github.com/fusionstore/fusion/internal/trace"
)

// Target is the system under load. *store.Store satisfies it via
// StoreTarget; tests interpose middleware (e.g. response corruption) the
// same way.
type Target interface {
	Get(ctx context.Context, name string, offset, length uint64) ([]byte, error)
	Put(ctx context.Context, name string, data []byte) error
	Query(ctx context.Context, q string) (*store.Result, error)
}

// StoreTarget adapts a *store.Store to Target.
type StoreTarget struct{ S *store.Store }

// Get implements Target.
func (t StoreTarget) Get(ctx context.Context, name string, offset, length uint64) ([]byte, error) {
	return t.S.GetContext(ctx, name, offset, length)
}

// Put implements Target.
func (t StoreTarget) Put(ctx context.Context, name string, data []byte) error {
	_, err := t.S.PutContext(ctx, name, data)
	return err
}

// Query implements Target.
func (t StoreTarget) Query(ctx context.Context, q string) (*store.Result, error) {
	return t.S.QueryContext(ctx, q)
}

// Error taxonomy classes. Every failed op lands in exactly one.
const (
	ErrClassNodeDown        = "node_down"
	ErrClassTooManyFailures = "too_many_failures"
	ErrClassInjected        = "injected"
	ErrClassClientCrashed   = "client_crashed"
	ErrClassOracleMismatch  = "oracle_mismatch"
	// ErrClassOverloaded marks ops the admission scheduler shed
	// (sched.ErrOverloaded): the system explicitly refusing work it cannot
	// serve within SLO, as opposed to timing out while pretending it can.
	ErrClassOverloaded = "overloaded"
	// ErrClassDeadline marks ops that ran out of their end-to-end budget
	// (context deadline exceeded or cancelled), whether the coordinator, a
	// retry/backoff, or a node-side expiry check called it.
	ErrClassDeadline = "deadline"
	ErrClassOther    = "other"
)

// classify maps an op error to its taxonomy class.
func classify(err error) string {
	switch {
	case errors.Is(err, sched.ErrOverloaded):
		return ErrClassOverloaded
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return ErrClassDeadline
	case errors.Is(err, store.ErrTooManyFailures):
		return ErrClassTooManyFailures
	case errors.Is(err, cluster.ErrNodeDown):
		return ErrClassNodeDown
	case errors.Is(err, faultnet.ErrClientCrashed):
		return ErrClassClientCrashed
	case errors.Is(err, faultnet.ErrInjected):
		return ErrClassInjected
	default:
		return ErrClassOther
	}
}

// OpStats is one op kind's outcome summary.
type OpStats struct {
	Attempted uint64            `json:"attempted"`
	Succeeded uint64            `json:"succeeded"`
	Failed    uint64            `json:"failed"`
	Coalesced uint64            `json:"coalesced,omitempty"` // puts skipped: same-object put already in flight
	Errors    map[string]uint64 `json:"errors,omitempty"`
	P50Us     float64           `json:"p50_us"`
	P99Us     float64           `json:"p99_us"`
	P999Us    float64           `json:"p999_us"`
	MeanUs    float64           `json:"mean_us"`
	MaxUs     float64           `json:"max_us"`
}

// Availability is the fraction of attempted ops that succeeded (1 when
// nothing was attempted).
func (o *OpStats) Availability() float64 {
	if o == nil || o.Attempted == 0 {
		return 1
	}
	return float64(o.Succeeded) / float64(o.Attempted)
}

// Shed counts ops the admission scheduler rejected with ErrOverloaded.
func (o *OpStats) Shed() uint64 {
	if o == nil {
		return 0
	}
	return o.Errors[ErrClassOverloaded]
}

// AdmittedAvailability is availability over admitted ops only: shed ops are
// excluded from the denominator, because an explicit, classified rejection
// the client can retry is the load shedder working as designed — what this
// metric must expose is work the system *accepted* and then failed.
func (o *OpStats) AdmittedAvailability() float64 {
	if o == nil {
		return 1
	}
	admitted := o.Attempted - o.Shed()
	if admitted == 0 {
		return 1
	}
	return float64(o.Succeeded) / float64(admitted)
}

// TraceTotals aggregates the request-span counters over every op of a run —
// the same counters /debug/fusionz reports per request, here as run totals.
type TraceTotals struct {
	Retries        uint64 `json:"retries"`
	Hedges         uint64 `json:"hedges"`
	DegradedReads  uint64 `json:"degraded_reads"`
	CacheHits      uint64 `json:"cache_hits"`
	BytesFromNodes uint64 `json:"bytes_from_nodes"`
	RoundTrips     uint64 `json:"round_trips"`
}

// RunStats is one load run's machine-readable outcome.
type RunStats struct {
	// RateOps is the configured open-loop arrival rate.
	RateOps float64 `json:"rate_ops"`
	// AchievedOps is scheduled arrivals per second actually issued
	// (arrivals the dispatcher never shed; equals the configured rate
	// unless the schedule was cut short).
	AchievedOps float64 `json:"achieved_ops"`
	// GoodputOps is successful operations per wall-clock second.
	GoodputOps float64 `json:"goodput_ops"`
	// GoodputMBps is payload bytes (Get responses + Put bodies) per second.
	GoodputMBps float64 `json:"goodput_mbps"`
	// WallMS is the measured wall time from first arrival to last
	// completion.
	WallMS float64 `json:"wall_ms"`
	// ScheduledOps is the schedule length.
	ScheduledOps int `json:"scheduled_ops"`
	// PerOp maps op kind → outcome summary. Latency percentiles are
	// arrival-to-completion (open loop: queueing is charged to the system).
	PerOp map[string]*OpStats `json:"per_op"`
	// DispatchLagP99Us is how late the dispatcher launched ops relative to
	// their scheduled arrival — generator health, not system latency.
	DispatchLagP99Us float64 `json:"dispatch_lag_p99_us"`
	// PeakInflight is the maximum concurrently outstanding ops observed.
	PeakInflight int `json:"peak_inflight"`
	// OracleChecks counts verified responses; OracleMismatches counts
	// responses matching no admissible version. Any nonzero mismatch count
	// is a correctness bug, never an acceptable degradation.
	OracleChecks     uint64   `json:"oracle_checks"`
	OracleMismatches uint64   `json:"oracle_mismatches"`
	MismatchSamples  []string `json:"mismatch_samples,omitempty"`
	// Trace aggregates the per-request span counters across the run.
	Trace TraceTotals `json:"trace"`
	// Verdicts are the SLO evaluations; SLOPass is their conjunction.
	Verdicts []Verdict `json:"verdicts"`
	SLOPass  bool      `json:"slo_pass"`
}

// Availability is the overall fraction of attempted ops that succeeded.
func (r *RunStats) Availability() float64 {
	var att, suc uint64
	for _, o := range r.PerOp {
		att += o.Attempted
		suc += o.Succeeded
	}
	if att == 0 {
		return 1
	}
	return float64(suc) / float64(att)
}

// ReadAvailability is availability over Get+Query only — the floor chaos
// soaks gate on (a put is legitimately unservable while any placement node
// is down; a read is not, up to n−k failures).
func (r *RunStats) ReadAvailability() float64 {
	var att, suc uint64
	for _, kind := range []OpKind{OpGet, OpQuery} {
		if o := r.PerOp[kind.String()]; o != nil {
			att += o.Attempted
			suc += o.Succeeded
		}
	}
	if att == 0 {
		return 1
	}
	return float64(suc) / float64(att)
}

// Shed counts ops across all kinds that the admission scheduler rejected.
func (r *RunStats) Shed() uint64 {
	var n uint64
	for _, o := range r.PerOp {
		n += o.Shed()
	}
	return n
}

// AdmittedReadAvailability is read availability with shed reads excluded
// from the denominator — the overload test's headline number: past
// capacity the store may refuse reads (that shows up in Shed), but the
// reads it admits must still overwhelmingly succeed.
func (r *RunStats) AdmittedReadAvailability() float64 {
	var att, suc uint64
	for _, kind := range []OpKind{OpGet, OpQuery} {
		if o := r.PerOp[kind.String()]; o != nil {
			att += o.Attempted - o.Shed()
			suc += o.Succeeded
		}
	}
	if att == 0 {
		return 1
	}
	return float64(suc) / float64(att)
}

// UnclassifiedErrors counts failures that landed in the catch-all "other"
// class. TestRunTenantsMultiStream requires this to be zero: under overload
// every rejection must be a typed, retryable error, not mystery breakage.
func (r *RunStats) UnclassifiedErrors() uint64 {
	var n uint64
	for _, o := range r.PerOp {
		n += o.Errors[ErrClassOther]
	}
	return n
}

// runner carries one run's shared state.
type runner struct {
	cfg    Config
	target Target
	oracle *Oracle
	hist   *metrics.HistogramSet

	mu       sync.Mutex
	perOp    map[OpKind]*OpStats
	inflight int
	peak     int
	bytes    uint64
	checks   uint64
	misses   uint64
	missMsgs []string
	trace    TraceTotals
}

// Run preloads the corpus (version 0 of every object) and executes the
// open-loop schedule against the target, returning the measured stats. The
// returned error covers harness failures (corpus generation, preload);
// system-under-test failures are data, reported in the stats.
func Run(target Target, cfg Config) (*RunStats, error) {
	cfg = cfg.withDefaults()
	oracle, err := NewOracle(cfg.Seed, cfg.Objects, cfg.RowsPerObject)
	if err != nil {
		return nil, err
	}
	if err := Preload(target, oracle); err != nil {
		return nil, err
	}
	return RunPreloaded(target, oracle, cfg)
}

// Preload writes version 0 of every corpus object to the target.
func Preload(target Target, oracle *Oracle) error {
	var wg sync.WaitGroup
	errs := make([]error, oracle.Objects())
	sem := make(chan struct{}, 8)
	for i := 0; i < oracle.Objects(); i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			v := oracle.Initial(i)
			if err := target.Put(context.Background(), ObjectName(i), v.Data); err != nil {
				errs[i] = fmt.Errorf("loadgen: preload %s: %w", ObjectName(i), err)
			}
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// RunPreloaded executes the schedule against a target whose corpus is
// already loaded (the soak controller preloads once, then runs several
// windows against the same oracle so version history spans windows).
func RunPreloaded(target Target, oracle *Oracle, cfg Config) (*RunStats, error) {
	cfg = cfg.withDefaults()
	if oracle.Objects() < cfg.Objects {
		return nil, fmt.Errorf("loadgen: oracle holds %d objects, config wants %d", oracle.Objects(), cfg.Objects)
	}
	r := &runner{
		cfg:    cfg,
		target: target,
		oracle: oracle,
		hist:   metrics.NewHistogramSet(),
		perOp:  map[OpKind]*OpStats{},
	}
	for k := OpKind(0); k < numOpKinds; k++ {
		r.perOp[k] = &OpStats{Errors: map[string]uint64{}}
	}

	schedule := BuildSchedule(cfg)
	sem := make(chan struct{}, cfg.MaxInflight)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range schedule {
		op := schedule[i]
		arrival := start.Add(op.At)
		if d := time.Until(arrival); d > 200*time.Microsecond {
			time.Sleep(d)
		}
		r.hist.Observe(lagKey, time.Since(arrival))
		wg.Add(1)
		sem <- struct{}{} // memory guard; lateness it causes stays charged to latency
		r.enter()
		go func(op Op, arrival time.Time) {
			defer wg.Done()
			r.execute(op, arrival)
			r.leave()
			<-sem
		}(op, arrival)
	}
	wg.Wait()
	wall := time.Since(start)
	return r.finish(schedule, wall), nil
}

// TenantRun names one tenant's stream in a multi-tenant run. If Cfg.Tenant
// is empty it defaults to Name, so the store's scheduler accounts the stream
// under the run's name.
type TenantRun struct {
	Name string
	Cfg  Config
}

// RunTenants drives several tenants' schedules concurrently against one
// target sharing a single oracle — the multi-tenant overload experiment: an
// aggressor tenant saturates the store while a latency-sensitive tenant's
// stream measures what admission control preserved for it. The corpus is
// preloaded once; per-tenant stats are returned keyed by tenant name. The
// oracle is concurrency-safe, so cross-tenant puts to the same object
// coalesce exactly as same-tenant ones do.
func RunTenants(target Target, runs []TenantRun) (map[string]*RunStats, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("loadgen: no tenant runs")
	}
	// The shared oracle must hold the largest corpus any tenant touches, and
	// corpus contents are seed-derived: all tenants must agree on the corpus
	// parameters or reads would verify against the wrong bytes.
	base := runs[0].Cfg.withDefaults()
	objects, rows := base.Objects, base.RowsPerObject
	for _, tr := range runs[1:] {
		c := tr.Cfg.withDefaults()
		if c.Seed != base.Seed || c.Objects != objects || c.RowsPerObject != rows {
			return nil, fmt.Errorf("loadgen: tenant %q corpus (seed=%d objects=%d rows=%d) differs from %q (seed=%d objects=%d rows=%d)",
				tr.Name, c.Seed, c.Objects, c.RowsPerObject, runs[0].Name, base.Seed, objects, rows)
		}
	}
	oracle, err := NewOracle(base.Seed, objects, rows)
	if err != nil {
		return nil, err
	}
	if err := Preload(target, oracle); err != nil {
		return nil, err
	}
	out := make(map[string]*RunStats, len(runs))
	errs := make([]error, len(runs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, tr := range runs {
		cfg := tr.Cfg
		if cfg.Tenant == "" {
			cfg.Tenant = tr.Name
		}
		wg.Add(1)
		go func(i int, name string, cfg Config) {
			defer wg.Done()
			stats, err := RunPreloaded(target, oracle, cfg)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs[i] = fmt.Errorf("loadgen: tenant %q: %w", name, err)
				return
			}
			out[name] = stats
		}(i, tr.Name, cfg)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return out, nil
}

var (
	lagKey = metrics.Key{Op: "load.lag", Node: metrics.NodeNone}
)

func opLatencyKey(k OpKind) metrics.Key {
	return metrics.Key{Op: "load." + k.String(), Node: metrics.NodeNone}
}

func (r *runner) enter() {
	r.mu.Lock()
	r.inflight++
	if r.inflight > r.peak {
		r.peak = r.inflight
	}
	r.mu.Unlock()
}

func (r *runner) leave() {
	r.mu.Lock()
	r.inflight--
	r.mu.Unlock()
}

// execute runs one scheduled op, records its arrival-to-completion latency,
// classifies any failure and verifies successful responses against the
// oracle.
func (r *runner) execute(op Op, arrival time.Time) {
	ctx, sp := trace.Start(context.Background(), "load."+op.Kind.String())
	if r.cfg.Tenant != "" {
		ctx = sched.WithTenant(ctx, r.cfg.Tenant)
	}
	if r.cfg.OpDeadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.cfg.OpDeadline)
		defer cancel()
	}
	var err error
	var payload uint64
	verified := false
	switch op.Kind {
	case OpGet:
		lo := r.oracle.ReadWindow(op.Object)
		var offset, length uint64
		if op.Arg != fullGetArg {
			offset, length = r.oracle.RangeFor(op.Object, op.Arg)
		}
		var got []byte
		got, err = r.target.Get(ctx, ObjectName(op.Object), offset, length)
		if err == nil {
			payload = uint64(len(got))
			err = r.oracle.CheckGet(op.Object, lo, offset, length, got)
			verified = err == nil
		}
	case OpPut:
		ver, v, ok, genErr := r.oracle.BeginPut(op.Object)
		if genErr != nil {
			err = genErr
			break
		}
		if !ok {
			sp.End()
			r.mu.Lock()
			r.perOp[OpPut].Coalesced++
			r.mu.Unlock()
			return
		}
		err = r.target.Put(ctx, ObjectName(op.Object), v.Data)
		r.oracle.EndPut(op.Object, ver, err == nil)
		if err == nil {
			payload = uint64(len(v.Data))
		}
	case OpQuery:
		lo := r.oracle.ReadWindow(op.Object)
		var res *store.Result
		res, err = r.target.Query(ctx, QueryText(int(op.Arg), op.Object))
		if err == nil {
			if TableTemplate(int(op.Arg)) {
				err = r.oracle.CheckQueryTable(op.Object, lo, int(op.Arg), resultRows(res))
			} else {
				var aggs []sql.Literal
				if res != nil {
					aggs = res.AggValues
				}
				err = r.oracle.CheckQuery(op.Object, lo, int(op.Arg), aggs)
			}
			verified = err == nil
		}
	}
	sp.End()
	latency := time.Since(arrival)
	r.hist.Observe(opLatencyKey(op.Kind), latency)

	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.perOp[op.Kind]
	st.Attempted++
	r.trace.Retries += sp.Total(trace.Retries)
	r.trace.Hedges += sp.Total(trace.Hedges)
	r.trace.DegradedReads += sp.Total(trace.DegradedReads)
	r.trace.CacheHits += sp.Total(trace.CacheHits)
	r.trace.BytesFromNodes += sp.Total(trace.BytesFromNodes)
	r.trace.RoundTrips += sp.Total(trace.RoundTrips)
	if verified {
		r.checks++
	}
	if err == nil {
		st.Succeeded++
		r.bytes += payload
		return
	}
	st.Failed++
	class := classify(err)
	if errors.Is(err, ErrOracleMismatch) {
		class = ErrClassOracleMismatch
		r.misses++
		r.checks++
		if len(r.missMsgs) < 8 {
			r.missMsgs = append(r.missMsgs, err.Error())
		}
	}
	st.Errors[class]++
}

// resultRows converts a table-shaped query result into rows of literals for
// oracle comparison.
func resultRows(res *store.Result) [][]sql.Literal {
	if res == nil {
		return nil
	}
	rows := make([][]sql.Literal, res.Rows)
	for i := range rows {
		row := make([]sql.Literal, len(res.Data))
		for j, col := range res.Data {
			switch col.Type {
			case lpq.Int64:
				row[j] = sql.IntLit(col.Ints[i])
			case lpq.Float64:
				row[j] = sql.FloatLit(col.Floats[i])
			default:
				row[j] = sql.StringLit(col.Strings[i])
			}
		}
		rows[i] = row
	}
	return rows
}

// finish summarizes the run.
func (r *runner) finish(schedule []Op, wall time.Duration) *RunStats {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	stats := &RunStats{
		RateOps:      r.cfg.Rate,
		WallMS:       float64(wall) / float64(time.Millisecond),
		ScheduledOps: len(schedule),
		PerOp:        map[string]*OpStats{},
		PeakInflight: r.peak,
	}
	var succeeded uint64
	for k := OpKind(0); k < numOpKinds; k++ {
		st := r.perOp[k]
		if snap, ok := r.hist.Get(opLatencyKey(k)); ok {
			st.P50Us = us(snap.P50)
			st.P99Us = us(snap.P99)
			st.P999Us = us(snap.P999)
			st.MeanUs = us(snap.Mean)
			st.MaxUs = us(snap.Max)
		}
		if len(st.Errors) == 0 {
			st.Errors = nil
		}
		stats.PerOp[k.String()] = st
		succeeded += st.Succeeded
	}
	if lag, ok := r.hist.Get(lagKey); ok {
		stats.DispatchLagP99Us = us(lag.P99)
	}
	if len(schedule) > 0 {
		horizon := schedule[len(schedule)-1].At
		if horizon > 0 {
			stats.AchievedOps = float64(len(schedule)) / horizon.Seconds()
		}
	}
	if wall > 0 {
		stats.GoodputOps = float64(succeeded) / wall.Seconds()
		stats.GoodputMBps = float64(r.bytes) / 1e6 / wall.Seconds()
	}
	stats.OracleChecks = r.checks
	stats.OracleMismatches = r.misses
	stats.MismatchSamples = r.missMsgs
	stats.Trace = r.trace
	stats.Verdicts = evaluateSLOs(stats, r.cfg.SLOs)
	stats.SLOPass = AllPass(stats.Verdicts) && r.misses == 0
	return stats
}
