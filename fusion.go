// Package fusion is the public API of the Fusion analytics object store —
// a from-scratch implementation of "Fusion: An Analytics Object Store
// Optimized for Query Pushdown" (ASPLOS 2025).
//
// Fusion erasure-codes columnar analytics objects so that no column chunk
// (the smallest computable unit of a PAX file) is ever split across storage
// nodes, and executes SQL queries with fine-grained, cost-based computation
// pushdown. See README.md for an overview, DESIGN.md for the architecture
// and EXPERIMENTS.md for the paper-reproduction results.
//
// The minimal flow:
//
//	cluster := fusion.NewSimCluster(fusion.DefaultSimConfig()) // or NewTCPClient(addrs)
//	s, err := fusion.NewStore(cluster, fusion.FusionOptions())
//	stats, err := s.Put("lineitem", objectBytes)               // an lpq object
//	res, err := s.Query("SELECT l_orderkey FROM lineitem WHERE l_shipdate < 100")
//	data, err := s.Get("lineitem", 0, 0)
//
// Columnar objects are built with the lpq writer (or converted from CSV):
//
//	w := fusion.NewObjectWriter([]fusion.Column{{Name: "id", Type: fusion.Int64}}, fusion.DefaultWriterOptions())
//	w.WriteRowGroup([]fusion.ColumnData{fusion.IntColumn(ids)})
//	object, err := w.Finish()
//
// This package is a facade: implementations live under internal/ and are
// re-exported here as type aliases, so the whole documented surface is
// importable by downstream modules.
package fusion

import (
	"context"
	"io"

	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/erasure"
	"github.com/fusionstore/fusion/internal/gateway"
	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/metrics"
	"github.com/fusionstore/fusion/internal/simnet"
	"github.com/fusionstore/fusion/internal/store"
	"github.com/fusionstore/fusion/internal/tcpnet"
	"github.com/fusionstore/fusion/internal/trace"
)

// Store is the analytics object store client/coordinator: Put, Get, Query,
// Delete, Scrub, ScrubAll, RepairNode, RepairNodeAll, ReconcileOrphans.
type Store = store.Store

// Options configure a Store; see FusionOptions and BaselineOptions for the
// two configurations the paper evaluates.
type Options = store.Options

// Result is a query's output.
type Result = store.Result

// PutStats reports how an object was stored.
type PutStats = store.PutStats

// ScrubOptions and ScrubReport drive integrity scrubbing.
type (
	ScrubOptions = store.ScrubOptions
	ScrubReport  = store.ScrubReport
)

//
// Durability and repair (DESIGN.md §9). Reads survive lost and rotted blocks
// by rebuilding them from the stripe's survivors; nothing rewrites a block in
// the background. An operator repairs with Store.Scrub or ScrubAll (with
// ScrubOptions.Repair), RepairNode or RepairNodeAll, and ReconcileOrphans,
// each taking the caller's context first.
//

// ScrubAllReport aggregates per-object scrub reports for a whole-cluster
// scrub (Store.ScrubAll); Totals sums them.
type ScrubAllReport = store.ScrubAllReport

// ReconcileReport summarizes an orphan-reconciliation pass
// (Store.ReconcileOrphans): blocks scanned, live, half-commits finished,
// orphans deleted, conservatively skipped.
type ReconcileReport = store.ReconcileReport

//
// Stores, clusters and deadlines (DESIGN.md §14). Get, Put, Delete and Query
// have *Context variants, and the maintenance calls take a context first;
// the deadline travels with each node call: nodes refuse expired work, a
// query stops at its next stage boundary, and a Put that expires before its
// commit point rolls back.
//

// NewStore builds a store over a cluster transport.
func NewStore(client Cluster, opts Options) (*Store, error) { return store.New(client, opts) }

// FusionOptions is the paper's Fusion configuration: file-format-aware
// coding (RS(9,6)) with adaptive pushdown and a 2% storage budget.
func FusionOptions() Options { return store.FusionOptions() }

// BaselineOptions is the paper's baseline: fixed-block coding with
// coordinator-side chunk reassembly.
func BaselineOptions() Options { return store.BaselineOptions() }

// Erasure-code parameters.
type ErasureParams = erasure.Params

// The paper's two standard codes.
var (
	RS96   = erasure.RS96
	RS1410 = erasure.RS1410
)

// Cluster is the transport interface a Store runs over.
type Cluster = cluster.Client

// SimConfig configures the deterministic in-process cluster (the
// evaluation substrate).
type SimConfig = simnet.Config

// SimCluster is the in-process cluster.
type SimCluster = simnet.Cluster

// DefaultSimConfig returns the paper-calibrated 9-node configuration.
func DefaultSimConfig() SimConfig { return simnet.DefaultConfig() }

// NewSimCluster starts an in-process cluster.
func NewSimCluster(cfg SimConfig) *SimCluster { return simnet.New(cfg) }

// NewSimLatencyModel builds the latency model matching a sim config. The store
// only counts — every Result carries its cost ledger — and the model prices:
//
//	sample := model.QueryTime(res.Stats.Stages, res.WireBytes())
//
// A model draws its jitter from one stream, so price a deployment's queries
// in the order they ran.
func NewSimLatencyModel(cfg SimConfig) *simnet.LatencyModel { return simnet.NewLatencyModel(cfg) }

// NewTCPClient connects to fusion-server nodes (node i at addrs[i]).
func NewTCPClient(addrs []string) *tcpnet.Client { return tcpnet.NewClient(addrs) }

// NewNodeServer serves one storage node over TCP (see cmd/fusion-server).
func NewNodeServer(id int, bs cluster.BlockStore, listen string) (*tcpnet.Server, error) {
	return tcpnet.NewServer(cluster.NewNode(id, bs), listen)
}

// Block stores backing a storage node.
func NewMemBlockStore() cluster.BlockStore { return cluster.NewMemStore() }

// NewDiskBlockStore persists blocks as files under dir.
func NewDiskBlockStore(dir string) (cluster.BlockStore, error) { return cluster.NewDiskStore(dir) }

// NewGatewayHandler returns the HTTP front door (see cmd/fusion-gateway).
func NewGatewayHandler(s *Store) *gateway.Handler { return gateway.New(s) }

//
// Observability (DESIGN.md §8).
//

// Span is one timed stage of a request-scoped trace. Spans form a tree,
// carry per-stage wall times plus byte/event counters (read amplification,
// retries, degraded reads), and every method is safe on a nil
// receiver — untraced requests pay <5 ns per instrumentation site.
type Span = trace.Span

// StartTrace begins a request-scoped trace and installs it in the context;
// pass the context to the store's *Context methods (GetContext,
// QueryContext, ...), then End the span and inspect Tree(),
// ReadAmplification() or Snapshot().
func StartTrace(ctx context.Context, name string) (context.Context, *Span) {
	return trace.Start(ctx, name)
}

// HistogramSet is a concurrency-safe set of latency histograms keyed by
// (operation, node); install one on Options.Metrics (and, for per-frame
// wire timings, tcpnet's Client.SetMetrics) and read p50/p95/p99 summaries
// with Snapshot or WriteText.
type HistogramSet = metrics.HistogramSet

// NewHistogramSet returns an empty histogram set.
func NewHistogramSet() *HistogramSet { return metrics.NewHistogramSet() }

// CacheStats snapshots the coordinator read cache (DESIGN.md §10): per-tier
// hit/miss counters for the metadata, block-bytes and decoded-chunk tiers,
// data-tier residency against Options.CacheBytes, and the singleflight
// dedup/decode counters. Read it with Store.CacheStats; CacheTier.HitRate
// gives a tier's hit fraction. Enable the data tiers by setting
// Options.CacheBytes > 0 (the metadata tier is always on, bounded at 4096
// objects).
type (
	CacheStats = metrics.CacheStats
	CacheTier  = metrics.CacheTier
)

//
// Columnar object building (the lpq format).
//

// Type is a column's logical type.
type Type = lpq.Type

// Column types.
const (
	Int64   = lpq.Int64
	Float64 = lpq.Float64
	String  = lpq.String
)

// Column, ColumnData and the writer build lpq objects.
type (
	Column        = lpq.Column
	ColumnData    = lpq.ColumnData
	ObjectWriter  = lpq.Writer
	WriterOptions = lpq.WriterOptions
	Object        = lpq.File
)

// Column constructors.
var (
	IntColumn    = lpq.IntColumn
	FloatColumn  = lpq.FloatColumn
	StringColumn = lpq.StringColumn
)

// NewObjectWriter builds lpq objects row group by row group.
func NewObjectWriter(schema []Column, opts WriterOptions) *ObjectWriter {
	return lpq.NewWriter(schema, opts)
}

// DefaultWriterOptions matches the paper's file generation (dictionary
// encoding + Snappy, 20000-row pages).
func DefaultWriterOptions() WriterOptions { return lpq.DefaultWriterOptions() }

// OpenObject parses an lpq object for local reading.
func OpenObject(data []byte) (*Object, error) { return lpq.Open(data) }

// CSVOptions configure FromCSV.
type CSVOptions = lpq.CSVOptions

// FromCSV converts CSV input (header row required) into an lpq object with
// inferred column types.
func FromCSV(r io.Reader, opts CSVOptions) ([]byte, error) { return lpq.FromCSV(r, opts) }
