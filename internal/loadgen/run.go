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
	// ErrClassDeadline marks ops that ran out of their end-to-end budget
	// (context deadline exceeded or cancelled), whether the coordinator, a
	// retry/backoff, or a node-side expiry check called it.
	ErrClassDeadline = "deadline"
	ErrClassOther    = "other"
)

// classify maps an op error to its taxonomy class.
func classify(err error) string {
	switch {
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
}

// TraceTotals aggregates the request-span counters the fault tests read over
// every op of a run.
type TraceTotals struct {
	Retries       uint64 `json:"retries"`
	DegradedReads uint64 `json:"degraded_reads"`
}

// RunStats is one load run's machine-readable outcome.
type RunStats struct {
	// PerOp maps op kind → outcome summary.
	PerOp map[string]*OpStats `json:"per_op"`
	// OracleChecks counts verified responses; OracleMismatches counts
	// responses matching no admissible version. Any nonzero mismatch count
	// is a correctness bug, never an acceptable degradation.
	OracleChecks     uint64   `json:"oracle_checks"`
	OracleMismatches uint64   `json:"oracle_mismatches"`
	MismatchSamples  []string `json:"mismatch_samples,omitempty"`
	// Trace aggregates the per-request span counters across the run.
	Trace TraceTotals `json:"trace"`
}

// Availability is the overall fraction of attempted ops that succeeded.
func (r *RunStats) Availability() float64 { return r.availability(OpGet, OpPut, OpQuery) }

// ReadAvailability is availability over Get+Query only — the floor chaos
// soaks gate on (a put is legitimately unservable while any placement node
// is down; a read is not, up to n−k failures).
func (r *RunStats) ReadAvailability() float64 { return r.availability(OpGet, OpQuery) }

// availability is the fraction of attempted ops of the given kinds that
// succeeded (1 when none was attempted).
func (r *RunStats) availability(kinds ...OpKind) float64 {
	var att, suc uint64
	for _, kind := range kinds {
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

// runner carries one run's shared state.
type runner struct {
	target Target
	oracle *Oracle

	mu       sync.Mutex
	perOp    map[OpKind]*OpStats
	checks   uint64
	misses   uint64
	missMsgs []string
	trace    TraceTotals
}

// Run preloads the corpus (version 0 of every object) and executes the
// schedule against the target, returning the run's stats. The returned
// error covers harness failures (corpus generation, preload);
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
		target: target,
		oracle: oracle,
		perOp:  map[OpKind]*OpStats{},
	}
	for k := OpKind(0); k < numOpKinds; k++ {
		r.perOp[k] = &OpStats{Errors: map[string]uint64{}}
	}

	schedule := BuildSchedule(cfg)
	sem := make(chan struct{}, cfg.MaxInflight)
	var wg sync.WaitGroup
	start := time.Now()
	for _, op := range schedule {
		if d := time.Until(start.Add(op.At)); d > 200*time.Microsecond {
			time.Sleep(d)
		}
		wg.Add(1)
		sem <- struct{}{} // memory guard
		go func(op Op) {
			defer wg.Done()
			r.execute(op)
			<-sem
		}(op)
	}
	wg.Wait()
	return r.finish(), nil
}

// execute runs one scheduled op, classifies any failure and verifies
// successful responses against the oracle.
func (r *runner) execute(op Op) {
	ctx, sp := trace.Start(context.Background(), "load."+op.Kind.String())
	var err error
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

	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.perOp[op.Kind]
	st.Attempted++
	r.trace.Retries += sp.Total(trace.Retries)
	r.trace.DegradedReads += sp.Total(trace.DegradedReads)
	if verified {
		r.checks++
	}
	if err == nil {
		st.Succeeded++
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
func (r *runner) finish() *RunStats {
	stats := &RunStats{
		PerOp:            map[string]*OpStats{},
		OracleChecks:     r.checks,
		OracleMismatches: r.misses,
		MismatchSamples:  r.missMsgs,
		Trace:            r.trace,
	}
	for k := OpKind(0); k < numOpKinds; k++ {
		st := r.perOp[k]
		if len(st.Errors) == 0 {
			st.Errors = nil
		}
		stats.PerOp[k.String()] = st
	}
	return stats
}
