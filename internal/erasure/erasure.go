// Package erasure implements systematic (n, k) Reed–Solomon erasure codes
// over GF(2^8), the codes used by Fusion and by the baseline object store.
//
// A Coder splits data into k data shards and generates n−k parity shards.
// The code is systematic: the data shards are stored in plaintext, which is
// what makes in-situ computation pushdown on storage nodes possible (§2 of
// the paper). Any k of the n shards reconstruct the original stripe.
//
// The two configurations the paper discusses, RS(9,6) and RS(14,10), are
// available as RS96 and RS1410, but any n > k ≥ 1 with n ≤ 256 works.
package erasure

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/fusionstore/fusion/internal/gf256"
)

// Common configurations from the paper (§2).
var (
	// RS96 is the default RS(9,6) code: 6 data + 3 parity shards.
	RS96 = Params{N: 9, K: 6}
	// RS1410 is the RS(14,10) code: 10 data + 4 parity shards.
	RS1410 = Params{N: 14, K: 10}
)

// Params names an (n, k) systematic code: n total shards, k data shards.
type Params struct {
	N int // total shards per stripe
	K int // data shards per stripe
}

// Validate reports whether the parameters describe a usable code.
func (p Params) Validate() error {
	switch {
	case p.K < 1:
		return fmt.Errorf("erasure: k must be ≥ 1, got %d", p.K)
	case p.N <= p.K:
		return fmt.Errorf("erasure: n (%d) must exceed k (%d)", p.N, p.K)
	case p.N > 256:
		return fmt.Errorf("erasure: n must be ≤ 256, got %d", p.N)
	}
	return nil
}

func (p Params) String() string { return fmt.Sprintf("RS(%d,%d)", p.N, p.K) }

// Coder encodes and reconstructs stripes for a fixed (n, k).
type Coder struct {
	params Params
	// matrix is the n×k systematic code matrix: the top k rows are the
	// identity, the bottom n−k rows generate parity.
	matrix *gf256.Matrix
	// parity is the fused kernel of the n−k parity rows, built once and
	// shared by every Encode and Verify.
	parity *gf256.MatrixKernel

	// mu guards the decode-plan cache (decode matrices depend on which
	// shards survive, so they are built lazily and memoized per erasure
	// pattern).
	mu       sync.RWMutex
	decCache map[string]*decodePlan
}

// maxDecodePlans bounds the decode-plan cache; real deployments see a
// handful of erasure patterns (which nodes are down), so the cap only
// guards against adversarial churn.
const maxDecodePlans = 256

// NewCoder builds a Coder for the given parameters.
func NewCoder(p Params) (*Coder, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c := &Coder{
		params:   p,
		matrix:   buildMatrix(p.N, p.K),
		decCache: make(map[string]*decodePlan),
	}
	c.parity = gf256.NewMatrixKernel(rowsOf(c.matrix, rangeInts(p.N)[p.K:]))
	return c, nil
}

// rowsOf returns rows idx of m, as a MatrixKernel's coefficient rows.
func rowsOf(m *gf256.Matrix, idx []int) [][]byte {
	out := make([][]byte, len(idx))
	for i, r := range idx {
		out[i] = m.Row(r)
	}
	return out
}

// MustCoder is NewCoder for parameters known to be valid; it panics on error.
func MustCoder(p Params) *Coder {
	c, err := NewCoder(p)
	if err != nil {
		panic(err)
	}
	return c
}

// buildMatrix constructs the systematic n×k code matrix: a raw Vandermonde
// matrix normalized so its top k×k block is the identity. Every k-row
// submatrix of the result is invertible, which is the property reconstruction
// relies on.
func buildMatrix(n, k int) *gf256.Matrix {
	vm := gf256.Vandermonde(n, k)
	top := vm.SubMatrix(rangeInts(k))
	topInv, err := top.Invert()
	if err != nil {
		// The top k rows of a Vandermonde matrix with distinct points are
		// always independent; failure here is a programming error.
		panic("erasure: vandermonde top block singular: " + err.Error())
	}
	return vm.Mul(topInv)
}

func rangeInts(n int) []int {
	r := make([]int, n)
	for i := range r {
		r[i] = i
	}
	return r
}

// Errors returned by Encode, Verify and Reconstruct.
var (
	ErrShardCount = errors.New("erasure: wrong number of shards")
	ErrShardSize  = errors.New("erasure: shards have mismatched or zero sizes")
	ErrTooFewLeft = errors.New("erasure: too many shards lost to reconstruct")
	ErrShardAlias = errors.New("erasure: two shards are the same memory")
)

// checkShards validates shape: exactly n shards; all non-nil shards share one
// non-zero size and no two of them are the same slice (a parity shard that is
// also a data shard would be encoded over its own input, and a stripe decoded
// from one survivor counted twice is garbage). It returns that size.
func (c *Coder) checkShards(shards [][]byte, allowNil bool) (int, error) {
	if len(shards) != c.params.N {
		return 0, fmt.Errorf("%w: have %d, want %d", ErrShardCount, len(shards), c.params.N)
	}
	size := -1
	for _, s := range shards {
		if s == nil {
			if !allowNil {
				return 0, fmt.Errorf("%w: nil shard", ErrShardSize)
			}
			continue
		}
		if size < 0 {
			size = len(s)
		} else if len(s) != size {
			return 0, fmt.Errorf("%w: %d vs %d", ErrShardSize, len(s), size)
		}
	}
	if size <= 0 {
		return 0, fmt.Errorf("%w: no data present", ErrShardSize)
	}
	for i, s := range shards {
		if s == nil {
			continue
		}
		for j, prev := range shards[:i] {
			if prev != nil && &s[0] == &prev[0] {
				return 0, fmt.Errorf("%w: %d and %d", ErrShardAlias, j, i)
			}
		}
	}
	return size, nil
}

// Encode fills shards[k:] with parity computed from shards[:k]. All n shards
// must be allocated with the same length; the first k hold data.
//
// The fused kernel computes every parity row in one pass over the data,
// over sub-stripe ranges fanned out across up to GOMAXPROCS goroutines
// (forEachRange).
func (c *Coder) Encode(shards [][]byte) error {
	size, err := c.checkShards(shards, false)
	if err != nil {
		return err
	}
	k := c.params.K
	forEachRange(size, func(lo, hi int) { c.parity.Mul(shards[:k], lo, hi, shards[k:], lo) })
	return nil
}

// encodeNaive is the seed byte-wise encode kernel (log/exp MulAddSlice, one
// full-stripe pass per matrix coefficient). It is retained as the reference
// implementation: property tests assert the fused parallel kernel is
// bit-identical to it, and benchmarks report its throughput as the baseline
// the kernel is measured against.
func (c *Coder) encodeNaive(shards [][]byte) error {
	if _, err := c.checkShards(shards, false); err != nil {
		return err
	}
	k := c.params.K
	for p := k; p < c.params.N; p++ {
		row := c.matrix.Row(p)
		out := shards[p]
		clear(out)
		for d := 0; d < k; d++ {
			gf256.MulAddSlice(row[d], shards[d], out)
		}
	}
	return nil
}

// Split partitions data into k equal data shards (zero-padding the tail) and
// allocates n−k parity shards, ready for Encode. The returned shard size is
// ceil(len(data)/k); data of length 0 yields shards of size 1.
func (c *Coder) Split(data []byte) [][]byte {
	k, n := c.params.K, c.params.N
	size := (len(data) + k - 1) / k
	if size == 0 {
		size = 1
	}
	shards := make([][]byte, n)
	for i := 0; i < n; i++ {
		shards[i] = make([]byte, size)
		if i < k {
			start := i * size
			if start < len(data) {
				copy(shards[i], data[start:min(start+size, len(data))])
			}
		}
	}
	return shards
}

// Join concatenates the k data shards and trims the result to dataLen.
func (c *Coder) Join(shards [][]byte, dataLen int) ([]byte, error) {
	if len(shards) < c.params.K {
		return nil, ErrShardCount
	}
	out := make([]byte, 0, dataLen)
	for i := 0; i < c.params.K && len(out) < dataLen; i++ {
		if shards[i] == nil {
			return nil, fmt.Errorf("%w: data shard %d missing", ErrShardSize, i)
		}
		need := dataLen - len(out)
		out = append(out, shards[i][:min(need, len(shards[i]))]...)
	}
	if len(out) != dataLen {
		return nil, fmt.Errorf("erasure: shards hold %d bytes, need %d", len(out), dataLen)
	}
	return out, nil
}

// Verify recomputes parity from the data shards and reports whether it
// matches the stored parity shards. Parity is recomputed into pooled
// scratch buffers (no per-call allocation) over parallel sub-stripe
// ranges; the first mismatching range short-circuits the rest.
func (c *Coder) Verify(shards [][]byte) (bool, error) {
	size, err := c.checkShards(shards, false)
	if err != nil {
		return false, err
	}
	k, m := c.params.K, c.params.N-c.params.K
	var mismatch atomic.Bool
	forEachRange(size, func(lo, hi int) {
		if mismatch.Load() {
			return
		}
		w := hi - lo
		bufp := getScratch(m * w)
		defer putScratch(bufp)
		var rows [256][]byte
		for p := range m {
			rows[p] = (*bufp)[p*w : (p+1)*w]
		}
		c.parity.Mul(shards[:k], lo, hi, rows[:m], 0)
		for p := range m {
			if !bytes.Equal(rows[p], shards[k+p][lo:hi]) {
				mismatch.Store(true)
				return
			}
		}
	})
	return !mismatch.Load(), nil
}

// decodePlan is a memoized decode strategy for one erasure pattern: which k
// present shards to read, which shards to rebuild, and the fused kernel
// that rebuilds them all in one pass. Plans are cached per pattern so
// repeated reconstructions (scrubs, node repair loops, degraded-read
// storms) skip the matrix inversion and table builds entirely.
type decodePlan struct {
	rows    []int               // the k present shard indices the plan reads
	missing []int               // the shard indices the plan rebuilds, data then parity
	kernel  *gf256.MatrixKernel // row i rebuilds missing[i] from shards[rows]
}

// decodePlanFor returns the (cached) plan that rebuilds missing from rows,
// where rows holds k present shard indices in ascending order.
//
// The plan is one product over the k survivors. Inverting the code matrix's
// rows for them gives dec, which maps the survivors back to the data; the
// code matrix times dec maps them to every shard. A missing data shard's row
// of that product is its row of dec; a missing parity shard's is its code
// row folded through dec, so parity is rebuilt straight from the survivors
// too, in the same pass as the data.
func (c *Coder) decodePlanFor(rows, missing []int) (*decodePlan, error) {
	keyBytes := make([]byte, 0, len(rows)+len(missing))
	for _, r := range rows {
		keyBytes = append(keyBytes, byte(r))
	}
	for _, m := range missing {
		keyBytes = append(keyBytes, byte(m))
	}
	key := string(keyBytes)
	c.mu.RLock()
	plan := c.decCache[key]
	c.mu.RUnlock()
	if plan != nil {
		return plan, nil
	}
	dec, err := c.matrix.SubMatrix(rows).Invert()
	if err != nil {
		// Cannot happen for a valid RS matrix: every k-row submatrix is
		// invertible by construction.
		return nil, fmt.Errorf("erasure: decode matrix singular: %v", err)
	}
	plan = &decodePlan{
		rows:    append([]int(nil), rows...),
		missing: append([]int(nil), missing...),
		kernel:  gf256.NewMatrixKernel(rowsOf(c.matrix.Mul(dec), missing)),
	}
	c.mu.Lock()
	if len(c.decCache) < maxDecodePlans {
		c.decCache[key] = plan
	}
	c.mu.Unlock()
	return plan, nil
}

// Reconstruct rebuilds every nil shard in place. Missing shards are denoted
// by nil entries; at least k shards must be present. Present shards are never
// modified. Reconstruct rebuilds both data and parity shards.
func (c *Coder) Reconstruct(shards [][]byte) error {
	return c.reconstruct(shards, true)
}

// ReconstructData rebuilds only the missing data shards (indexes < k),
// leaving missing parity shards nil. It is the cheaper call when the caller
// only needs the original bytes back.
func (c *Coder) ReconstructData(shards [][]byte) error {
	return c.reconstruct(shards, false)
}

func (c *Coder) reconstruct(shards [][]byte, parity bool) error {
	size, err := c.checkShards(shards, true)
	if err != nil {
		return err
	}
	n, k := c.params.N, c.params.K
	present := make([]int, 0, n)
	var missing []int
	for i, s := range shards {
		switch {
		case s != nil:
			present = append(present, i)
		case i < k || parity:
			missing = append(missing, i)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	if len(present) < k {
		return fmt.Errorf("%w: %d present, need %d", ErrTooFewLeft, len(present), k)
	}
	// Any k present shards decode.
	plan, err := c.decodePlanFor(present[:k], missing)
	if err != nil {
		return err
	}
	in := make([][]byte, k)
	for j, r := range plan.rows {
		in[j] = shards[r]
	}
	out := make([][]byte, len(missing))
	for i, m := range missing {
		shards[m] = make([]byte, size)
		out[i] = shards[m]
	}
	// Ranges are disjoint, so the fan-out needs no further synchronization.
	forEachRange(size, func(lo, hi int) { plan.kernel.Mul(in, lo, hi, out, lo) })
	return nil
}
