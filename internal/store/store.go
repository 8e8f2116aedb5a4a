package store

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/fusionstore/fusion/internal/cache"
	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/erasure"
	"github.com/fusionstore/fusion/internal/metakv"
	"github.com/fusionstore/fusion/internal/metrics"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/sched"
	"github.com/fusionstore/fusion/internal/trace"
)

// PushdownPolicy selects how the projection stage treats each column chunk.
type PushdownPolicy uint8

const (
	// PushdownAdaptive applies the paper's cost equation per chunk:
	// selectivity × compressibility < 1 (§4.3). Fusion's default.
	PushdownAdaptive PushdownPolicy = iota
	// PushdownAlways pushes every projection down (ablation).
	PushdownAlways
	// PushdownNever fetches every chunk to the coordinator (ablation).
	PushdownNever
)

func (p PushdownPolicy) String() string {
	switch p {
	case PushdownAdaptive:
		return "adaptive"
	case PushdownAlways:
		return "always"
	default:
		return "never"
	}
}

// Options configure a Store.
type Options struct {
	// Params is the erasure code; default RS(9,6).
	Params erasure.Params
	// Layout selects FAC or fixed-block coding on Put.
	Layout LayoutMode
	// Pushdown is the projection pushdown policy for FAC objects (the only
	// ones whose chunks a node holds whole).
	Pushdown PushdownPolicy
	// StorageBudget is the FAC overhead budget relative to optimal; if
	// Algorithm 1 exceeds it, Put falls back to fixed blocks (§4.2).
	// Default 0.02 (the paper's 2%).
	StorageBudget float64
	// FixedBlockSize is the block size for fixed-block coding; default
	// 100MB (§6), scaled down by benchmarks alongside their datasets.
	FixedBlockSize uint64
	// QueryWorkers bounds the worker pool that fans the filter stage out
	// across row groups and the projection/aggregation stage out across
	// chunks. 0 means runtime.GOMAXPROCS; 1 runs queries serially. Results
	// are merged in row-group/chunk order, so query output is identical at
	// every pool size.
	QueryWorkers int
	// Retry bounds the transport retry/backoff/deadline behavior of every
	// coordinator→node call, the metadata register's included. The zero value
	// is cluster.Policy's default: 3 attempts, exponential backoff from 1ms
	// to 100ms without jitter, ErrNodeDown fails fast (the reconstruction
	// fan-out is the better retry). Retry.Breaker, when set, is the per-node
	// circuit breaker every call consults: a node whose circuit is open fails
	// fast with ErrNodeDown instead of burning a transport attempt. Retry.Health
	// is the store's own: the per-node counters behind Health().
	Retry cluster.Policy
	// Metrics, when set, receives per-(op, node) latency histograms from
	// every coordinator→node RPC and every top-level operation — the data
	// behind /debug/fusionz and fusion-bench's percentile tables. Nil (the
	// default) disables all timing.
	Metrics *metrics.HistogramSet
	// CacheBytes is the byte budget of the coordinator's read cache for
	// verified block bytes and decoded column chunks, shared across both
	// data tiers. It also arms the singleflight layer that dedups
	// concurrent identical block fetches and RS reconstructions. 0 (the
	// default) disables the data tiers and singleflight; the metadata
	// cache (4096 objects, epoch-safe) stays on regardless.
	CacheBytes int64
	// Sched, when set, is the admission scheduler every top-level operation
	// (Get, Put, Delete, Query) passes through before doing any work:
	// per-tenant weighted-fair queuing under global and per-class concurrency
	// caps, with explicit load shedding (sched.ErrOverloaded) once a tenant's
	// queue is full or the estimated wait exceeds the caller's deadline. A
	// request is accounted to the tenant its context carries
	// (sched.WithTenant), else to sched.DefaultTenant. Nil (the default)
	// disables admission control entirely.
	Sched *sched.Scheduler
	// Seed drives stripe placement.
	Seed int64
}

// FusionOptions returns Fusion's configuration: FAC coding, two-stage
// pushdown execution, adaptive cost model, 2% budget.
func FusionOptions() Options {
	return Options{
		Params:         erasure.RS96,
		Layout:         LayoutFAC,
		Pushdown:       PushdownAdaptive,
		StorageBudget:  0.02,
		FixedBlockSize: 100 << 20,
		Seed:           1,
	}
}

// BaselineOptions returns the paper's baseline: fixed-block coding with
// coordinator-side reassembly (MinIO/Ceph-representative, §6), including
// the footer-pruning optimization.
func BaselineOptions() Options {
	o := FusionOptions()
	o.Layout = LayoutFixed
	o.Pushdown = PushdownNever
	return o
}

// Store is an analytics object store client/coordinator bound to a cluster.
// Every node can act as coordinator; a Store embodies the coordinator role
// for the requests routed to it (§5: requests route to a node by object-name
// hash — see CoordinatorFor).
type Store struct {
	client  cluster.Client
	opts    Options
	coder   *erasure.Coder
	retry   cluster.Policy
	health  *metrics.Health
	hist    *metrics.HistogramSet
	repairs *repairQueue
	cache   *cache.Cache
	sched   *sched.Scheduler

	mu  sync.Mutex
	rng *rand.Rand
}

// New builds a Store over the given cluster client.
func New(client cluster.Client, opts Options) (*Store, error) {
	if err := opts.Params.Validate(); err != nil {
		return nil, err
	}
	if opts.Params.N > client.NumNodes() {
		return nil, fmt.Errorf("store: %v needs %d nodes, cluster has %d",
			opts.Params, opts.Params.N, client.NumNodes())
	}
	if opts.StorageBudget == 0 {
		opts.StorageBudget = 0.02
	}
	if opts.FixedBlockSize == 0 {
		opts.FixedBlockSize = 100 << 20
	}
	coder, err := erasure.NewCoder(opts.Params)
	if err != nil {
		return nil, err
	}
	health := metrics.NewHealth()
	retry := opts.Retry
	retry.Health = health
	return &Store{
		client:  client,
		opts:    opts,
		coder:   coder,
		retry:   retry,
		health:  health,
		hist:    opts.Metrics,
		repairs: newRepairQueue(repairQueueLimit),
		cache:   cache.New(cache.Config{Bytes: opts.CacheBytes}),
		sched:   opts.Sched,
		rng:     rand.New(rand.NewSource(opts.Seed)),
	}, nil
}

// SchedStats snapshots the admission scheduler's per-tenant counters (the
// zero value when no scheduler is configured).
func (s *Store) SchedStats() sched.Stats { return s.sched.Stats() }

// beginOp is the one prologue of a top-level operation: it opens the op's
// span under the caller's trace and returns it with the end func the op
// defers, which records the op's latency histogram and closes the span. Both
// are off by default and then cost nothing. Maintenance ops (scrub, repair,
// reconcile) begin here; foreground ops begin with admitOp.
func (s *Store) beginOp(ctx context.Context, op string) (*trace.Span, func()) {
	parent := trace.FromContext(ctx)
	if parent == nil && s.hist == nil {
		return nil, func() {}
	}
	sp := parent.Child("store." + op)
	start := time.Now()
	return sp, func() {
		s.hist.Observe(metrics.Key{Op: "op." + op, Node: metrics.NodeNone}, time.Since(start))
		sp.End()
	}
}

// admitOp is beginOp for the foreground ops (Get, Put, Delete, Query), which
// first pass the admission scheduler; with none configured they are admitted
// immediately. end also frees the slot (dispatching the next queued waiter).
// Time spent queued is charged to the op's span, so traces show
// added-by-choice latency separately from service time.
func (s *Store) admitOp(ctx context.Context, op string, class sched.Class) (*trace.Span, func(), error) {
	sp, end := s.beginOp(ctx, op)
	release, wait, err := s.sched.Acquire(ctx, "", class)
	if err != nil {
		sp.End() // a shed op has a span but no service time to record
		return nil, nil, err
	}
	if wait > 0 {
		sp.Count(trace.QueueWaitMicros, uint64(wait.Microseconds()))
	}
	return sp, func() { release(); end() }, nil
}

// Health returns the store's per-node call/failure/retry/timeout counters.
func (s *Store) Health() *metrics.Health { return s.health }

// Breaker returns the circuit breaker guarding coordinator→node calls
// (nil when none is configured).
func (s *Store) Breaker() *cluster.Breaker { return s.retry.Breaker }

// Metrics returns the store's latency histogram set (nil unless
// Options.Metrics was set).
func (s *Store) Metrics() *metrics.HistogramSet { return s.hist }

// call is the only way a request leaves the coordinator — block traffic,
// pushed operators, the metadata register (registerClient) and maintenance
// scans alike; the repair manager's heartbeat probe is the one exception. It
// is the hardened transport entry: bounded retries with backoff and
// per-attempt deadlines per Options.Retry, the circuit breaker and per-node
// health accounting, all bounded end to end by ctx — a done context issues no
// attempt, and a context deadline is stamped onto the request as a relative
// microsecond budget (rpc.Request.DeadlineMicros) so the node, too, can
// refuse or abandon expired work. When sp is non-nil the call charges its
// attempts and retries — and, for a data-plane request, its round trips and
// bytes from the node — to that request span, so a traced operation's rpcs
// total is the calls the transport saw; when the store has a histogram set,
// the call's latency is recorded under the node and request kind. Both are
// nil by default and then cost nothing. When ctx carries a query's state,
// each data-plane reply is one entry of its cost ledger, written here and
// nowhere else, so the ledger is the transport's record of the query.
func (s *Store) call(ctx context.Context, sp *trace.Span, node int, req *rpc.Request) (*rpc.Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if dl, ok := ctx.Deadline(); ok {
		rem := time.Until(dl)
		if rem <= 0 {
			return nil, context.DeadlineExceeded
		}
		// Round the budget up so a sub-microsecond remainder is never
		// stamped as "no deadline".
		req.DeadlineMicros = rem.Microseconds() + 1
	}
	ledger := ledgerOf(ctx)
	if sp == nil && s.hist == nil && ledger == nil {
		resp, _, err := cluster.CallRetryCtx(ctx, s.client, node, req, s.retry)
		return resp, err
	}
	start := time.Now()
	resp, attempts, err := cluster.CallRetryCtx(ctx, s.client, node, req, s.retry)
	s.hist.Observe(metrics.Key{Op: "rpc." + req.Kind.String(), Node: node}, time.Since(start))
	sp.Count(trace.RPCs, uint64(attempts))
	if attempts > 1 {
		sp.Count(trace.Retries, uint64(attempts-1))
	}
	if isDataPlane(req) {
		// Every transport attempt of a data-plane request is one network
		// round trip — a whole scatter-gather batch counts once, which is
		// exactly the economy the batching layer buys.
		sp.Count(trace.RoundTrips, uint64(attempts))
		if resp != nil {
			sp.Count(trace.BytesFromNodes, resp.PayloadBytes())
			ledger.charge(node, req, resp)
		}
	}
	return resp, err
}

// charge enters one data-plane reply in the query's ledger: a bare block read
// is a fetch, a frame one batch.
func (e *execState) charge(node int, req *rpc.Request, resp *rpc.Response) {
	if e == nil {
		return
	}
	e.mu.Lock()
	if req.Kind == rpc.KindBatch {
		e.stats.BatchRPCs++
	} else {
		e.stats.FetchRPCs++
	}
	e.mu.Unlock()
	e.addOp(metrics.OpCost{Node: node, ReqBytes: req.WireSize(), RespBytes: resp.WireSize(),
		DiskBytes: resp.Cost.DiskBytes, ProcBytes: resp.Cost.ProcBytes})
}

// ctxErr is ctx.Err() that also sees a deadline the clock has passed but the
// context's timer has not yet delivered: call refuses such a request from the
// clock alone, and a caller classifying that failure must agree with it.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		return context.DeadlineExceeded
	}
	return nil
}

// registerBlocks prefixes the node-side name of every metadata-register block.
var registerBlocks = metakv.BlockID("")

// isDataPlane reports whether a request moves or scans an object's block data
// for a reader: the traffic round trips, bytes from nodes, read amplification
// and a query's ledger are figures of. Only two kinds of it reach call bare:
// block reads, and the scatter-gather frame — every pushed operator (filter,
// project, group-agg, top-k) leaves the coordinator inside a KindBatch frame,
// never on its own. The metadata register reads its replicas with GetBlock
// too and the write side deletes blocks a frame per node; both are control
// traffic and count as RPCs only.
func isDataPlane(req *rpc.Request) bool {
	switch req.Kind {
	case rpc.KindGetBlock:
		return !strings.HasPrefix(req.BlockID, registerBlocks)
	case rpc.KindBatch:
		return req.Subs[0].Kind != rpc.KindDeleteBlock
	}
	return false
}

// registerClient is the cluster.Client an operation's metadata register is
// built over: every Call is Store.call charged to the operation's span.
// Register reads observe the operation's context and deadline. Register
// writes — the epoch Incr's write phase, the publish, read repair, Delete —
// run under context.WithoutCancel: a cancelled call ends with its caller, but
// its frame may already be on the wire — the node applies it anyway — so a
// cancelled versioned write can land after a newer one and roll its replica
// back.
type registerClient struct {
	s   *Store
	ctx context.Context
	sp  *trace.Span
}

func (c registerClient) Call(node int, req *rpc.Request) (*rpc.Response, error) {
	ctx := c.ctx
	if req.Kind != rpc.KindGetBlock {
		ctx = context.WithoutCancel(ctx)
	}
	return c.s.call(ctx, c.sp, node, req)
}

func (c registerClient) NumNodes() int { return c.s.client.NumNodes() }

// callChecked is call with application errors converted to Go errors. A
// node-side deadline rejection surfaces as context.DeadlineExceeded (via
// errors.Is) so callers and the load harness classify it like any other
// expired request.
func (s *Store) callChecked(ctx context.Context, sp *trace.Span, node int, req *rpc.Request) (*rpc.Response, error) {
	resp, err := s.call(ctx, sp, node, req)
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		if cluster.IsExpiredErr(resp.Err) {
			return resp, fmt.Errorf("cluster: node %d: %s: %w", node, resp.Err, context.DeadlineExceeded)
		}
		return resp, fmt.Errorf("cluster: node %d: %s", node, resp.Err)
	}
	return resp, nil
}

// Options returns the store's configuration.
func (s *Store) Options() Options { return s.opts }

// queryWorkers resolves the query-stage worker pool size.
func (s *Store) queryWorkers() int {
	if w := s.opts.QueryWorkers; w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// CoordinatorFor returns the node that coordinates requests for an object:
// hash(name) mod cluster size (§5: no dedicated coordinator).
func (s *Store) CoordinatorFor(name string) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32()) % s.client.NumNodes()
}

// nodeOrder returns all node ids in a fresh random order — the candidate
// list for a stripe's placement (§4.2: blocks go to randomly chosen nodes).
func (s *Store) nodeOrder() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rng.Perm(s.client.NumNodes())
}

// blockID names a stored block. The epoch makes every write attempt
// write-aside: a failed or crashed Put's blocks can never collide with (or
// be mistaken for) a later attempt's, because epochs are never reused.
func blockID(object string, epoch uint64, stripe, block int) string {
	return fmt.Sprintf("%s/e%d/s%d/b%d", object, epoch, stripe, block)
}

// parseBlockID inverts blockID. Object names may themselves contain "/", so
// the fixed-shape suffix is parsed from the right.
func parseBlockID(id string) (object string, epoch uint64, stripe, block int, ok bool) {
	rest := id
	for i := 0; i < 3; i++ {
		slash := strings.LastIndexByte(rest, '/')
		if slash < 0 {
			return "", 0, 0, 0, false
		}
		seg := rest[slash+1:]
		rest = rest[:slash]
		var n uint64
		var err error
		switch {
		case i == 0 && strings.HasPrefix(seg, "b"):
			n, err = strconv.ParseUint(seg[1:], 10, 32)
			block = int(n)
		case i == 1 && strings.HasPrefix(seg, "s"):
			n, err = strconv.ParseUint(seg[1:], 10, 32)
			stripe = int(n)
		case i == 2 && strings.HasPrefix(seg, "e"):
			epoch, err = strconv.ParseUint(seg[1:], 10, 64)
		default:
			return "", 0, 0, 0, false
		}
		if err != nil {
			return "", 0, 0, 0, false
		}
	}
	if rest == "" {
		return "", 0, 0, 0, false
	}
	return rest, epoch, stripe, block, true
}

// metaKey is the quorum-register key holding an object's metadata.
func metaKey(object string) string { return "meta/" + object }

// epochKey is the quorum-register key of an object's epoch allocator; the
// register's version is the counter, its value stays empty.
func epochKey(object string) string { return "epoch/" + object }

// allocEpoch reserves the object's next write epoch on a metadata-replica
// majority. The reservation is durable before any block carries the epoch,
// so a crashed attempt's epoch is burned, never recycled.
func (s *Store) allocEpoch(ctx context.Context, sp *trace.Span, name string) (uint64, error) {
	kv, err := s.metaKV(ctx, sp, name)
	if err != nil {
		return 0, err
	}
	epoch, err := kv.Incr(epochKey(name))
	if err != nil {
		return 0, fmt.Errorf("store: allocating epoch for %q: %w", name, err)
	}
	return epoch, nil
}

// metaBlockID names the node-side block backing an object's metadata
// replica (for storage audits and tests).
func metaBlockID(object string) string { return metakv.BlockID(metaKey(object)) }

// metaKV returns the quorum register over the object's k+1 metadata
// replicas (§5; the ZooKeeper/etcd-style service of the paper's future
// work, here an ABD majority register). It tolerates floor(k/2) metadata
// replica failures with linearizable reads — in particular, a replica that
// missed an overwrite can never serve stale metadata pointing at
// garbage-collected blocks. The register is bound to one operation: its calls
// run under ctx and charge sp (registerClient).
func (s *Store) metaKV(ctx context.Context, sp *trace.Span, name string) (*metakv.KV, error) {
	return metakv.New(registerClient{s, ctx, sp}, s.metaReplicaNodes(name))
}

// metaReplicaNodes returns the k+1 nodes that hold an object's metadata
// (§5: the location map is replicated to k+1 nodes).
func (s *Store) metaReplicaNodes(name string) []int {
	n := s.client.NumNodes()
	first := s.CoordinatorFor(name)
	count := s.opts.Params.K + 1
	if count > n {
		count = n
	}
	nodes := make([]int, count)
	for i := range nodes {
		nodes[i] = (first + i) % n
	}
	return nodes
}

// cacheOn reports whether the data tiers (block bytes, decoded chunks) and
// the singleflight layer are enabled.
func (s *Store) cacheOn() bool { return s.opts.CacheBytes > 0 }

// CacheStats snapshots the coordinator cache counters (tier hit rates,
// residency, singleflight dedups, executed RS decodes).
func (s *Store) CacheStats() metrics.CacheStats { return s.cache.Stats() }

// blockKeyOf is the cache key of one stored block's verified bytes.
func blockKeyOf(meta *ObjectMeta, stripe, bin int) cache.Key {
	return cache.Key{Object: meta.Name, Epoch: meta.Epoch, Kind: cache.KindBlock, A: stripe, B: bin}
}

// chunkKeyOf is the cache key of one decoded column chunk.
func chunkKeyOf(meta *ObjectMeta, rowGroup, col int) cache.Key {
	return cache.Key{Object: meta.Name, Epoch: meta.Epoch, Kind: cache.KindChunk, A: rowGroup, B: col}
}

// Objects lists the names of objects known to this coordinator.
func (s *Store) Objects() []string {
	return s.cache.MetaNames()
}
