package loadgen

import (
	"errors"
	"hash/crc32"
	"testing"

	"github.com/fusionstore/fusion/internal/sql"
)

func newTestOracle(t *testing.T) *Oracle {
	t.Helper()
	o, err := NewOracle(21, 4, 30)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestOracleCatchesForgedChecksumCorruption is the verifier's self-test: a
// one-byte corruption whose CRC has been recomputed to match — i.e. a
// corruption every checksum layer in the system would wave through — must
// still fail the byte-for-byte content comparison. This is what makes the
// soak's "zero corruption" verdict mean content equality, not checksum
// equality.
func TestOracleCatchesForgedChecksumCorruption(t *testing.T) {
	o := newTestOracle(t)
	v := o.Initial(0)

	// Sanity: the genuine bytes verify.
	if err := o.CheckGet(0, 0, 0, 0, v.Data); err != nil {
		t.Fatalf("clean bytes rejected: %v", err)
	}

	corrupt := append([]byte(nil), v.Data...)
	corrupt[len(corrupt)/2] ^= 0x01
	// Forge the oracle's stored checksum so the CRC fast path *accepts* the
	// corrupted bytes; only the content comparison is left to catch them.
	orig := v.CRC
	v.CRC = crc32.Checksum(corrupt, castagnoli)
	defer func() { v.CRC = orig }()

	err := o.CheckGet(0, 0, 0, 0, corrupt)
	if !errors.Is(err, ErrOracleMismatch) {
		t.Fatalf("one-byte corruption with a forged CRC passed verification: %v", err)
	}
}

// TestOracleCatchesRangeCorruption covers the range-read path, which has no
// CRC fast path at all: a flipped byte inside the requested window must
// fail, and the same window's true bytes must pass.
func TestOracleCatchesRangeCorruption(t *testing.T) {
	o := newTestOracle(t)
	data := o.Initial(1).Data
	offset, length := uint64(10), uint64(50)
	want := append([]byte(nil), data[offset:offset+length]...)
	if err := o.CheckGet(1, 0, offset, length, want); err != nil {
		t.Fatalf("clean range rejected: %v", err)
	}
	want[7] ^= 0x80
	if err := o.CheckGet(1, 0, offset, length, want); !errors.Is(err, ErrOracleMismatch) {
		t.Fatalf("corrupted range passed verification: %v", err)
	}
	// Wrong lengths are mismatches too, not panics.
	if err := o.CheckGet(1, 0, offset, length, want[:len(want)-1]); !errors.Is(err, ErrOracleMismatch) {
		t.Fatalf("truncated range passed verification: %v", err)
	}
}

// TestOracleVersionWindows pins the admissibility semantics under
// overwrites: a read overlapping a put may see either side; a read starting
// after a successful put must see the new version; a *failed* put's version
// stays admissible forever (its commit point may have passed before the
// error).
func TestOracleVersionWindows(t *testing.T) {
	o := newTestOracle(t)
	obj := 3 // mutable half of a 4-object corpus
	v0 := o.Initial(obj)

	ver, v1, ok, err := o.BeginPut(obj)
	if err != nil || !ok || ver != 1 {
		t.Fatalf("BeginPut: ver=%d ok=%v err=%v", ver, ok, err)
	}
	// Puts are serialized per object: a second BeginPut must coalesce.
	if _, _, ok2, _ := o.BeginPut(obj); ok2 {
		t.Fatal("concurrent BeginPut on the same object was not coalesced")
	}
	// A read that started before the put committed may see v0 or v1.
	if err := o.CheckGet(obj, 0, 0, 0, v0.Data); err != nil {
		t.Fatalf("overlapping read of old version rejected: %v", err)
	}
	if err := o.CheckGet(obj, 0, 0, 0, v1.Data); err != nil {
		t.Fatalf("overlapping read of new version rejected: %v", err)
	}
	o.EndPut(obj, ver, true)

	// Strictly-later reads snapshot window base 1: v0 is now stale.
	lo := o.ReadWindow(obj)
	if lo != 1 {
		t.Fatalf("ReadWindow after committed put = %d, want 1", lo)
	}
	if err := o.CheckGet(obj, lo, 0, 0, v0.Data); !errors.Is(err, ErrOracleMismatch) {
		t.Fatalf("stale read after committed overwrite passed: %v", err)
	}

	// A failed put: the bytes stay admissible, the frontier stays put.
	ver2, v2, ok, err := o.BeginPut(obj)
	if err != nil || !ok || ver2 != 2 {
		t.Fatalf("BeginPut 2: ver=%d ok=%v err=%v", ver2, ok, err)
	}
	o.EndPut(obj, ver2, false)
	if o.ReadWindow(obj) != 1 {
		t.Fatalf("failed put advanced the committed frontier to %d", o.ReadWindow(obj))
	}
	if err := o.CheckGet(obj, o.ReadWindow(obj), 0, 0, v2.Data); err != nil {
		t.Fatalf("failed put's version must stay admissible: %v", err)
	}
	if err := o.CheckGet(obj, o.ReadWindow(obj), 0, 0, v1.Data); err != nil {
		t.Fatalf("committed version must stay admissible: %v", err)
	}
}

// TestOracleCatchesQueryCorruption checks the aggregate verifier: exact and
// tolerance-level answers pass, a perturbed aggregate or wrong arity fails.
func TestOracleCatchesQueryCorruption(t *testing.T) {
	o := newTestOracle(t)
	v := o.Initial(2)
	for tpl := 0; tpl < numScalarTemplates; tpl++ {
		var aggs []sql.Literal
		for _, want := range v.Answers[tpl] {
			aggs = append(aggs, sql.FloatLit(want))
		}
		if err := o.CheckQuery(2, 0, tpl, aggs); err != nil {
			t.Fatalf("template %d: exact answers rejected: %v", tpl, err)
		}
		// Within float tolerance: different accumulation order, same answer.
		jittered := append([]sql.Literal(nil), aggs...)
		jittered[0] = sql.FloatLit(v.Answers[tpl][0] * (1 + 5e-10))
		if err := o.CheckQuery(2, 0, tpl, jittered); err != nil {
			t.Fatalf("template %d: tolerance-level jitter rejected: %v", tpl, err)
		}
		wrong := append([]sql.Literal(nil), aggs...)
		wrong[0] = sql.FloatLit(v.Answers[tpl][0] + 1)
		if err := o.CheckQuery(2, 0, tpl, wrong); !errors.Is(err, ErrOracleMismatch) {
			t.Fatalf("template %d: perturbed aggregate passed: %v", tpl, err)
		}
		if err := o.CheckQuery(2, 0, tpl, aggs[:0]); !errors.Is(err, ErrOracleMismatch) {
			t.Fatalf("template %d: empty aggregate row passed: %v", tpl, err)
		}
	}
}

// TestOracleToleranceRelativeOrAbsolute pins the comparison rule: the
// allowed error is max(absolute, relative·|want|), so large SUMs get a
// scaled allowance and small AVGs a tight absolute one.
func TestOracleToleranceRelativeOrAbsolute(t *testing.T) {
	cases := []struct {
		want, got float64
		ok        bool
	}{
		{1e9, 1e9 + 0.4, true}, // large SUM: 4e-10 relative, within 1e-9·1e9
		{1e9, 1e9 + 10, false}, // large SUM: 1e-8 relative, out
		{1e-3, 1e-3 + 5e-10, true},
		{1e-3, 1e-3 + 1e-6, false}, // the old flat 1e-6 would have passed this
		{0, 5e-10, true},
		{0, 1e-8, false},
	}
	for _, c := range cases {
		if floatClose(c.want, c.got) != c.ok {
			t.Errorf("floatClose(%g, %g) = %v, want %v", c.want, c.got, !c.ok, c.ok)
		}
	}
}

// TestOracleCatchesTableCorruption checks the table verifier over the
// grouped and top-k templates: the exact reference passes, float jitter
// within tolerance passes, and any perturbed aggregate, reordered rows, or
// truncated table fails.
func TestOracleCatchesTableCorruption(t *testing.T) {
	o := newTestOracle(t)
	v := o.Initial(2)
	clone := func(rows [][]sql.Literal) [][]sql.Literal {
		out := make([][]sql.Literal, len(rows))
		for i, r := range rows {
			out[i] = append([]sql.Literal(nil), r...)
		}
		return out
	}
	for tpl := numScalarTemplates; tpl < numQueryTemplates; tpl++ {
		want := v.Tables[tpl]
		if len(want) == 0 {
			t.Fatalf("template %d: empty reference table", tpl)
		}
		if err := o.CheckQueryTable(2, 0, tpl, clone(want)); err != nil {
			t.Fatalf("template %d: exact table rejected: %v", tpl, err)
		}
		// Jitter every float cell at half tolerance.
		jit := clone(want)
		for _, row := range jit {
			for j, l := range row {
				if l.Kind == sql.LitFloat {
					row[j] = sql.FloatLit(l.F * (1 + 5e-10))
				}
			}
		}
		if err := o.CheckQueryTable(2, 0, tpl, jit); err != nil {
			t.Fatalf("template %d: tolerance-level jitter rejected: %v", tpl, err)
		}
		// Perturb one cell of the last row.
		bad := clone(want)
		last := bad[len(bad)-1]
		switch l := last[len(last)-1]; l.Kind {
		case sql.LitFloat:
			last[len(last)-1] = sql.FloatLit(l.F + 1)
		case sql.LitInt:
			last[len(last)-1] = sql.IntLit(l.I + 1)
		default:
			last[len(last)-1] = sql.StringLit(l.S + "x")
		}
		if err := o.CheckQueryTable(2, 0, tpl, bad); !errors.Is(err, ErrOracleMismatch) {
			t.Fatalf("template %d: perturbed table passed: %v", tpl, err)
		}
		if len(want) > 1 {
			swapped := clone(want)
			swapped[0], swapped[1] = swapped[1], swapped[0]
			if err := o.CheckQueryTable(2, 0, tpl, swapped); !errors.Is(err, ErrOracleMismatch) {
				t.Fatalf("template %d: reordered rows passed: %v", tpl, err)
			}
		}
		if err := o.CheckQueryTable(2, 0, tpl, clone(want)[:len(want)-1]); !errors.Is(err, ErrOracleMismatch) {
			t.Fatalf("template %d: truncated table passed: %v", tpl, err)
		}
	}
}

// TestOracleRangeForInBounds fuzzes the range derivation: every (offset,
// length) must slice version 0 in bounds with length ≥ 1.
func TestOracleRangeForInBounds(t *testing.T) {
	o := newTestOracle(t)
	size := uint64(len(o.Initial(0).Data))
	args := []uint64{0, 1, ^uint64(0) - 1, 0xDEADBEEF12345678, size << 32, 7<<32 | 9}
	for _, arg := range args {
		off, n := o.RangeFor(0, arg)
		if n == 0 || off+n > size {
			t.Fatalf("RangeFor(%#x) = (%d, %d) out of bounds for size %d", arg, off, n, size)
		}
	}
}
