package bitmap

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzBitmapUnmarshal throws arbitrary bytes and an expected row count at
// Unmarshal. It must never panic; whatever it accepts has exactly the rows
// expected, backed by no more words than they need, and Marshal writes it
// again in no more bytes than the input took, to a bitmap that decodes equal.
func FuzzBitmapUnmarshal(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 64, 100, 1000} {
		for _, density := range codecDensities {
			f.Add(densityBitmap(n, density, rng).Marshal(), uint16(n))
		}
	}
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{formRuns, 0x80}, uint16(100))
	f.Add([]byte{3, 100, 0}, uint16(100))
	f.Add([]byte{formGaps, 100, 3, 96}, uint16(100))
	f.Add([]byte{formRuns, 100, 10, 0, 90}, uint16(100))
	f.Add(NewFull(99).Marshal(), uint16(100))
	f.Add(binary.AppendUvarint(binary.AppendUvarint([]byte{formRuns}, 1<<40), 1<<40), uint16(100))
	f.Fuzz(func(t *testing.T, data []byte, rows uint16) {
		b, err := Unmarshal(data, int(rows))
		if err != nil {
			return
		}
		if b.Len() != int(rows) || cap(b.Words()) != (int(rows)+63)/64 {
			t.Fatalf("accepted as %d rows in %d words; expected %d rows", b.Len(), cap(b.Words()), rows)
		}
		enc := b.Marshal()
		if len(enc) > len(data) {
			t.Fatalf("re-marshalled to %d bytes, from %d: Marshal missed a smaller form", len(enc), len(data))
		}
		again, err := Unmarshal(enc, int(rows))
		if err != nil {
			t.Fatalf("re-marshalled bitmap refused: %v", err)
		}
		if !reflect.DeepEqual(again.Words(), b.Words()) {
			t.Fatal("re-marshalled bitmap decodes to other bits")
		}
	})
}
