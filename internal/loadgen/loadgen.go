// Package loadgen is the oracle-checked fault-traffic generator: it drives a
// Fusion store with mixed Get/Put/Query traffic against a seeded
// multi-object corpus while faults fire, verifies every response against a
// content oracle, and files every failed op under one class of an error
// taxonomy.
//
// The traffic follows a schedule computed before the clock starts: seeded
// Poisson arrivals at Config.Rate over Config.Duration, each op's kind,
// target object and range or query parameters drawn from the same
// generator. Ops are dispatched at their scheduled times, so traffic is
// spread across the fault windows a test or soak opens rather than bunched
// ahead of them, and a failing run reproduces from its logged seed.
//
// What a run reports is correctness, not speed: availability per op kind,
// the oracle's checks and mismatches (any mismatch is a bug), the error
// classes, and the degraded reads and retries the faults caused.
//
// The generator is transport-agnostic: anything implementing Target (a
// *store.Store via StoreTarget, over simnet or real tcpnet sockets, with or
// without a faultnet injector in between) can be driven.
package loadgen

import (
	"fmt"
	"math/rand"
	"time"
)

// OpKind enumerates the generated operation types.
type OpKind uint8

const (
	// OpGet reads an object (full-object or range read).
	OpGet OpKind = iota
	// OpPut overwrites a mutable object with its next seeded version.
	OpPut
	// OpQuery runs one of the fixed analytical query templates.
	OpQuery
	numOpKinds
)

func (k OpKind) String() string {
	switch k {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	default:
		return "query"
	}
}

// Mix is the relative weight of each op kind in the arrival stream. Weights
// need not sum to 1; they are normalized. The zero Mix defaults to the
// read-heavy analytics mix 80/5/15.
type Mix struct {
	Get   float64 `json:"get"`
	Put   float64 `json:"put"`
	Query float64 `json:"query"`
}

// DefaultMix is the read-heavy analytics default: 80% Get, 5% Put, 15% Query.
func DefaultMix() Mix { return Mix{Get: 0.80, Put: 0.05, Query: 0.15} }

func (m Mix) normalized() Mix {
	if m.Get <= 0 && m.Put <= 0 && m.Query <= 0 {
		m = DefaultMix()
	}
	total := m.Get + m.Put + m.Query
	return Mix{Get: m.Get / total, Put: m.Put / total, Query: m.Query / total}
}

// Config parameterizes one load run.
type Config struct {
	// Seed drives the whole schedule and the corpus contents.
	Seed int64
	// Rate is the arrival rate in operations per second.
	Rate float64
	// Duration is the arrival-schedule horizon; arrivals stop after it
	// (in-flight operations still drain and are counted).
	Duration time.Duration
	// MaxOps caps the schedule length regardless of Duration (0 = no cap).
	MaxOps int
	// Mix is the op-kind mix (zero value = DefaultMix).
	Mix Mix
	// Objects is the corpus size (default 32). The first half is immutable
	// (range reads verify against fixed bytes); the second half is the
	// mutable set puts overwrite.
	Objects int
	// RowsPerObject scales each corpus object (rows per row group,
	// default 160).
	RowsPerObject int
	// MaxInflight bounds concurrently outstanding operations — a memory
	// guard, not a concurrency knob: when the bound is hit the dispatcher
	// stalls until an op completes. Default 4096.
	MaxInflight int
}

// rangeFrac is the fraction of Gets that are range reads on immutable
// objects rather than full-object reads.
const rangeFrac = 0.5

func (c Config) withDefaults() Config {
	if c.Rate <= 0 {
		c.Rate = 1000
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	if c.Objects <= 0 {
		c.Objects = 32
	}
	if c.Objects < 2 {
		c.Objects = 2
	}
	if c.RowsPerObject <= 0 {
		c.RowsPerObject = 160
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4096
	}
	c.Mix = c.Mix.normalized()
	return c
}

// Op is one scheduled operation. Every field is fixed at schedule-build
// time; executing the schedule consults no further randomness.
type Op struct {
	// At is the scheduled arrival offset from the run start.
	At time.Duration
	// Kind is the operation type.
	Kind OpKind
	// Object is the corpus object index the op targets.
	Object int
	// Arg parameterizes the op: for range Gets it seeds the offset/length
	// draw, for Queries it selects the template. ^0 on a Get marks a
	// full-object read.
	Arg uint64
}

// fullGetArg marks a full-object Get in Op.Arg.
const fullGetArg = ^uint64(0)

// BuildSchedule computes the deterministic arrival schedule for a config:
// Poisson arrivals (seeded exponential inter-arrival gaps) at cfg.Rate over
// cfg.Duration, each op's kind drawn from the mix and its target and
// parameters drawn from the same generator. The same (seed, config) always
// yields the identical schedule, byte for byte.
func BuildSchedule(cfg Config) []Op {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	immutable, mutable := corpusSplit(cfg.Objects)

	var ops []Op
	at := time.Duration(0)
	for {
		// Exponential inter-arrival gap: Poisson process at cfg.Rate.
		gap := time.Duration(rng.ExpFloat64() / cfg.Rate * float64(time.Second))
		at += gap
		if at > cfg.Duration {
			break
		}
		if cfg.MaxOps > 0 && len(ops) >= cfg.MaxOps {
			break
		}
		op := Op{At: at}
		draw := rng.Float64()
		switch {
		case draw < cfg.Mix.Get:
			op.Kind = OpGet
			if rng.Float64() < rangeFrac {
				// Range read: immutable objects only, so the expected bytes
				// are version-independent.
				op.Object = immutable[rng.Intn(len(immutable))]
				op.Arg = rng.Uint64()
			} else {
				op.Object = rng.Intn(cfg.Objects)
				op.Arg = fullGetArg
			}
		case draw < cfg.Mix.Get+cfg.Mix.Put:
			op.Kind = OpPut
			op.Object = mutable[rng.Intn(len(mutable))]
			op.Arg = rng.Uint64()
		default:
			op.Kind = OpQuery
			op.Object = rng.Intn(cfg.Objects)
			op.Arg = uint64(rng.Intn(numQueryTemplates))
		}
		ops = append(ops, op)
	}
	return ops
}

// corpusSplit partitions object indexes into the immutable and mutable
// halves.
func corpusSplit(objects int) (immutable, mutable []int) {
	cut := objects / 2
	if cut == 0 {
		cut = 1
	}
	for i := 0; i < objects; i++ {
		if i < cut {
			immutable = append(immutable, i)
		} else {
			mutable = append(mutable, i)
		}
	}
	return immutable, mutable
}

// ObjectName returns the corpus object name for an index.
func ObjectName(i int) string { return fmt.Sprintf("load-obj-%03d", i) }
