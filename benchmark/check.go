package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"math"

	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/simnet"
	"github.com/fusionstore/fusion/internal/sql"
	"github.com/fusionstore/fusion/internal/store"
)

// errMismatch marks a response that is not what a correct store returns.
var errMismatch = errors.New("verification mismatch")

// hashSeed keys the result hashes; reference and timed results are hashed
// in the same process, so a per-process seed is enough.
var hashSeed = maphash.MakeSeed()

// refResult is what a query must return: the row count, the scalar
// aggregates, and a hash of the result table.
type refResult struct {
	rows     int
	aggs     []sql.Literal
	dataHash uint64
}

// hashData folds every value of a result table into one number, column by
// column in order.
func hashData(cols []lpq.ColumnData) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, c := range cols {
		h = (h ^ uint64(c.Type)) * prime
		for _, v := range c.Ints {
			h = (h ^ uint64(v)) * prime
		}
		for _, v := range c.Floats {
			h = (h ^ math.Float64bits(v)) * prime
		}
		for _, v := range c.Strings {
			h = (h ^ maphash.String(hashSeed, v)) * prime
		}
	}
	return h
}

// resultBytes is the size of a query result in plain form.
func resultBytes(res *store.Result) uint64 {
	n := uint64(8 * len(res.AggValues))
	for _, c := range res.Data {
		n += uint64(8 * (len(c.Ints) + len(c.Floats)))
		for _, s := range c.Strings {
			n += uint64(len(s))
		}
	}
	return n
}

func summarizeResult(res *store.Result) refResult {
	return refResult{rows: res.Rows, aggs: res.AggValues, dataHash: hashData(res.Data)}
}

// referenceResults runs each query once on an independent path — a
// simulated in-process cluster under the baseline options, which fetches
// chunks to the coordinator and evaluates there — over the same object.
func referenceResults(obj []byte, queries []string) (map[string]refResult, error) {
	s, err := store.New(simnet.New(simnet.DefaultConfig()), store.BaselineOptions())
	if err != nil {
		return nil, fmt.Errorf("reference store: %w", err)
	}
	if _, err := s.Put("lineitem", obj); err != nil {
		return nil, fmt.Errorf("reference put: %w", err)
	}
	refs := make(map[string]refResult, len(queries))
	for _, q := range queries {
		res, err := s.Query(q)
		if err != nil {
			return nil, fmt.Errorf("reference query %q: %w", q, err)
		}
		refs[q] = summarizeResult(res)
	}
	return refs, nil
}

// verifyQuery compares a timed result with its reference exactly: the
// store's reductions are canonical, so aggregates agree to the bit.
func verifyQuery(res *store.Result, want refResult) error {
	got := summarizeResult(res)
	if got.rows != want.rows {
		return fmt.Errorf("%w: %d rows, want %d", errMismatch, got.rows, want.rows)
	}
	if len(got.aggs) != len(want.aggs) {
		return fmt.Errorf("%w: %d aggregates, want %d", errMismatch, len(got.aggs), len(want.aggs))
	}
	for i := range got.aggs {
		if got.aggs[i] != want.aggs[i] {
			return fmt.Errorf("%w: aggregate %d is %v, want %v", errMismatch, i, got.aggs[i], want.aggs[i])
		}
	}
	if got.dataHash != want.dataHash {
		return fmt.Errorf("%w: result table differs from the reference", errMismatch)
	}
	return nil
}

// verifyGet checks that got is exactly one of the admissible contents, byte
// for byte: a checksum comparison alone would trust what it should check.
func verifyGet(got []byte, admissible ...[]byte) error {
	for _, want := range admissible {
		if bytes.Equal(got, want) {
			return nil
		}
	}
	return fmt.Errorf("%w: %d bytes returned match none of %d admissible contents", errMismatch, len(got), len(admissible))
}
