package store

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/fusionstore/fusion/internal/tpch"
)

// putMeta puts data as name and returns the metadata the Put built, as the
// coordinator cache holds it.
func putMeta(tb testing.TB, s *Store, name string, data []byte) *ObjectMeta {
	tb.Helper()
	if _, err := s.Put(name, data); err != nil {
		tb.Fatal(err)
	}
	m, ok := s.cache.GetMeta(name)
	if !ok {
		tb.Fatalf("%s: Put left no metadata in the cache", name)
	}
	return m.(*ObjectMeta)
}

// metaShape is the metadata a Put built for one object shape.
type metaShape struct {
	name string
	meta *ObjectMeta
}

// metaShapes puts the two object shapes the register holds most — a small
// object (object_io_small's two row groups of 9,000 rows) and the default
// lineitem (10 × 60,000 rows) — and returns the metadata each Put built.
func metaShapes(tb testing.TB) []metaShape {
	tb.Helper()
	small, _, _ := makeObject(tb, 2, 9000, 1)
	lineitem, err := tpch.Generate(tpch.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	s, _ := newSimStore(tb, FusionOptions())
	var out []metaShape
	for _, o := range []struct {
		name string
		data []byte
	}{{"small", small}, {"lineitem", lineitem}} {
		out = append(out, metaShape{o.name, putMeta(tb, s, o.name, o.data)})
	}
	return out
}

// BenchmarkMeta times the register value's codec on both shapes and reports
// the value's size.
func BenchmarkMeta(b *testing.B) {
	p := FusionOptions().Params
	for _, c := range metaShapes(b) {
		enc, err := EncodeMeta(c.meta)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("encode/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := EncodeMeta(c.meta); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(enc)), "value_B")
		})
		b.Run("decode/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := DecodeMeta(enc, p); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(enc)), "value_B")
		})
	}
}

// TestMetaValueSizes pins the register value's size for both shapes: the
// value holds no type descriptors and nothing Put can recompute, so a small
// object's is under a third of its encoding/gob form (1,856 B) and lineitem's
// under half (17,392 B). It is written to k+1 nodes by every Put.
func TestMetaValueSizes(t *testing.T) {
	limits := map[string]int{"small": 520, "lineitem": 8500}
	for _, c := range metaShapes(t) {
		enc, err := EncodeMeta(c.meta)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) > limits[c.name] {
			t.Errorf("%s: register value of %d bytes, want at most %d", c.name, len(enc), limits[c.name])
		}
	}
}

// TestMetaEveryField fills every field the register value encodes — of
// ObjectMeta, StripeMeta and ItemLoc, found by reflection — with a distinct
// non-zero value and requires the decode to return them all: a field added
// to one of them and left out of the codec fails here. The fields the value
// does not hold keep what Put gave them (Size, Footer and Items, which must
// tile each other) or are derived again (BlockIDs). It runs under FAC, whose
// Mode is 0, and under fixed blocks, whose value holds no item locations.
// Then, under both layouts, the metadata read back from the register must be
// the metadata Put built, derived fields included.
func TestMetaEveryField(t *testing.T) {
	data, _, _ := makeObject(t, 2, 300, 1)
	s, _ := newSimStore(t, fusionTestOptions())
	p := s.opts.Params
	enc, err := EncodeMeta(putMeta(t, s, "obj", data))
	if err != nil {
		t.Fatal(err)
	}
	m, err := DecodeMeta(enc, p) // a private copy to fill
	if err != nil {
		t.Fatal(err)
	}
	kept := map[string]bool{"Size": true, "Mode": true, "Footer": true, "Items": true, "BlockIDs": true}
	n := 0
	var fill func(v reflect.Value, path string)
	fill = func(v reflect.Value, path string) {
		n++
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if f := v.Type().Field(i); !kept[f.Name] {
					fill(v.Field(i), path+"."+f.Name)
				}
			}
		case reflect.Slice:
			if v.Len() == 0 {
				t.Fatalf("%s is empty", path)
			}
			for i := 0; i < v.Len(); i++ {
				fill(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		case reflect.Int:
			v.SetInt(int64(n))
		case reflect.Uint32, reflect.Uint64:
			v.SetUint(uint64(n))
		case reflect.String:
			v.SetString(fmt.Sprintf("obj%d", n))
		default:
			t.Fatalf("%s: a field of kind %s: teach this test and the codec about it", path, v.Kind())
		}
	}
	fill(reflect.ValueOf(m).Elem(), "ObjectMeta")
	for si, st := range m.Stripes {
		for j := range st.BlockIDs {
			st.BlockIDs[j] = blockID(m.Name, m.Epoch, si, j)
		}
	}
	for _, mode := range []LayoutMode{LayoutFAC, LayoutFixed} {
		want := *m
		if want.Mode = mode; mode == LayoutFixed {
			want.ItemLocs = nil
		}
		enc, err := EncodeMeta(&want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeMeta(enc, p)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !reflect.DeepEqual(got, &want) {
			t.Errorf("%v: decoded\n%+v\nwant\n%+v", mode, got, &want)
		}
	}

	for _, opts := range []Options{fusionTestOptions(), BaselineOptions()} {
		s, _ := newSimStore(t, opts)
		built := putMeta(t, s, "obj", data)
		got, err := s.metaQuorum(context.Background(), nil, "obj")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, built) {
			t.Errorf("%v: the register holds\n%+v\nPut built\n%+v", built.Mode, got, built)
		}
	}
}

// FuzzDecodeMeta: whatever bytes a node returns, DecodeMeta does not panic,
// holds no more elements than the value has bytes, and what it accepts
// re-encodes to a value that decodes to the same encoding again. Seeded with
// a value of each layout.
func FuzzDecodeMeta(f *testing.F) {
	data, _, _ := makeObject(f, 2, 50, 1)
	p := FusionOptions().Params
	for _, opts := range []Options{fusionTestOptions(), BaselineOptions()} {
		s, _ := newSimStore(f, opts)
		enc, err := EncodeMeta(putMeta(f, s, "obj", data))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMeta(data, p)
		if err != nil {
			return
		}
		for what, n := range map[string]int{
			"stripes": len(m.Stripes), "items": len(m.Items), "item locations": len(m.ItemLocs),
			"columns": len(m.Footer.Columns), "row groups": len(m.Footer.RowGroups), "chunks": m.Footer.NumChunks(),
		} {
			if n > len(data) {
				t.Fatalf("%d %s from a %d-byte value", n, what, len(data))
			}
		}
		enc, err := EncodeMeta(m)
		if err != nil {
			t.Fatalf("an accepted value does not re-encode: %v", err)
		}
		again, err := DecodeMeta(enc, p)
		if err != nil {
			t.Fatalf("a re-encoded value does not decode: %v", err)
		}
		if enc2, err := EncodeMeta(again); err != nil || !bytes.Equal(enc2, enc) {
			t.Fatalf("decode and encode are not stable: %v", err)
		}
	})
}
