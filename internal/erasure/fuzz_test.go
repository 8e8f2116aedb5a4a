package erasure

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzReconstruct draws a code, a shard length, a survivor set and a way to
// malform the stripe from the input, and pins what the store's degraded reads,
// scrub and repair rely on: from any k or more survivors Reconstruct returns
// every shard, and ReconstructData every data shard, equal to what was
// encoded; from fewer both refuse; and a stripe that is the wrong shape — a
// shard too many or too few, one ragged, one empty, one the same memory as
// another — is an error. Never a panic, never a write to a surviving shard,
// never a shard conjured for a stripe that was refused.
func FuzzReconstruct(f *testing.F) {
	// k−1, parity−1, size−1, two bytes of survivor bits, malformation, victim, data.
	f.Add([]byte{5, 2, 39, 0b1011_0111, 0b1, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}) // RS(9,6), two lost
	f.Add([]byte{5, 2, 39, 0b0001_0111, 0b0, 0, 0, 9, 8, 7})                   // RS(9,6), five lost: too few left
	f.Add([]byte{9, 3, 199, 0xFF, 0b11_1011, 0, 0, 1})                         // RS(14,10), one lost
	f.Add([]byte{0, 0, 0, 0b10, 0, 0, 0, 0xAB})                                // RS(2,1), the data shard lost
	for malform := byte(1); malform <= 5; malform++ {
		f.Add([]byte{5, 2, 39, 0xFF, 0xFF, malform, 3, 1, 2, 3})
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 7 {
			return
		}
		p := Params{K: 1 + int(in[0])%16}
		p.N = p.K + 1 + int(in[1])%8
		size := 1 + int(in[2])
		survives := func(i int) bool { return in[3+i/8%2]>>(i%8)&1 != 0 }
		malform, victim := int(in[5])%6, int(in[6])
		fill := in[7:]

		c, err := NewCoder(p)
		if err != nil {
			t.Fatal(err)
		}
		orig := make([][]byte, p.N)
		for i := range orig {
			orig[i] = make([]byte, size)
			if i < p.K {
				for j := range orig[i] {
					if len(fill) > 0 {
						orig[i][j] = fill[(i*size+j)%len(fill)] + byte(i)
					}
				}
			}
		}
		if err := c.Encode(orig); err != nil {
			t.Fatal(err)
		}
		// stripe builds the survivors afresh, so each call below starts from
		// the same input and a write to a survivor shows against orig.
		var alive []int
		stripe := func() [][]byte {
			alive = alive[:0]
			shards := make([][]byte, p.N)
			for i := range shards {
				if survives(i) {
					shards[i] = bytes.Clone(orig[i])
					alive = append(alive, i)
				}
			}
			return shards
		}
		stripe()
		if len(alive) == 0 {
			return
		}
		v := alive[victim%len(alive)]

		if malform != 0 {
			shards := stripe()
			var want error
			switch malform {
			case 1: // a shard too few
				shards, want = shards[:p.N-1], ErrShardCount
			case 2: // a shard too many
				shards, want = append(shards, make([]byte, size)), ErrShardCount
			case 3: // ragged: one survivor a byte longer (or the only one: nothing to differ from)
				shards[v] = append(shards[v], 0)
				if want = ErrShardSize; len(alive) == 1 {
					want = nil
				}
			case 4: // one survivor empty
				shards[v], want = []byte{}, ErrShardSize
			case 5: // one survivor the same memory as another
				if len(alive) < 2 {
					return
				}
				shards[v], want = shards[alive[(victim+1)%len(alive)]], ErrShardAlias
			}
			before := make([][]byte, len(shards))
			for i, s := range shards {
				before[i] = bytes.Clone(s)
			}
			for name, decode := range map[string]func([][]byte) error{"Reconstruct": c.Reconstruct, "ReconstructData": c.ReconstructData} {
				err := decode(shards)
				if want == nil {
					continue // a lone survivor of odd length is a stripe of that length
				}
				if !errors.Is(err, want) {
					t.Fatalf("%s of a malformed stripe (case %d) returned %v, want %v", name, malform, err, want)
				}
				for i, s := range shards {
					if (s == nil) != (before[i] == nil) || !bytes.Equal(s, before[i]) {
						t.Fatalf("%s refused the stripe (case %d) but changed shard %d", name, malform, i)
					}
				}
			}
			return
		}

		shards := stripe()
		err = c.Reconstruct(shards)
		switch {
		case len(alive) < p.K:
			if !errors.Is(err, ErrTooFewLeft) {
				t.Fatalf("Reconstruct from %d of %v returned %v", len(alive), p, err)
			}
			for i, s := range shards {
				if survives(i) != (s != nil) || (s != nil && !bytes.Equal(s, orig[i])) {
					t.Fatalf("Reconstruct refused the stripe but changed shard %d", i)
				}
			}
		case err != nil:
			t.Fatalf("Reconstruct from %d of %v: %v", len(alive), p, err)
		default:
			for i, s := range shards {
				if !bytes.Equal(s, orig[i]) {
					t.Fatalf("Reconstruct from %v of %v: shard %d differs from what was encoded", alive, p, i)
				}
			}
		}

		shards = stripe()
		err = c.ReconstructData(shards)
		if (len(alive) < p.K) != (err != nil) {
			t.Fatalf("ReconstructData from %d of %v returned %v", len(alive), p, err)
		}
		for i, s := range shards {
			switch {
			case survives(i) || (err == nil && i < p.K):
				if !bytes.Equal(s, orig[i]) {
					t.Fatalf("ReconstructData from %v of %v (err %v): shard %d differs from what was encoded", alive, p, err, i)
				}
			case s != nil:
				t.Fatalf("ReconstructData from %v of %v (err %v) produced shard %d", alive, p, err, i)
			}
		}
	})
}
