package store

import (
	"bytes"
	"context"
	"reflect"
	"testing"
)

// TestSegmentsPlanner drives the one read-side planner over a FAC and a
// fixed-block copy of the same object. Every planned range must tile its
// output exactly, stay inside its bin, and — assembled from the stored
// blocks by hand — equal both the object's bytes and what Get returns.
func TestSegmentsPlanner(t *testing.T) {
	data, _, _ := makeObject(t, 3, 2000, 21)
	size := uint64(len(data))
	const bs = 4096
	fixed := fusionTestOptions()
	fixed.Layout = LayoutFixed
	fixed.FixedBlockSize = bs
	k := uint64(fixed.Params.K)
	if size < 2*k*bs {
		t.Fatalf("object of %d bytes does not span two %d-byte stripes", size, k*bs)
	}

	for _, cfg := range []struct {
		name string
		opts Options
		mode LayoutMode
	}{
		{"FAC", fusionTestOptions(), LayoutFAC},
		{"fixed", fixed, LayoutFixed},
	} {
		s, _ := newSimStore(t, cfg.opts)
		if _, err := s.Put("obj", data); err != nil {
			t.Fatal(err)
		}
		meta, err := s.Meta("obj")
		if err != nil {
			t.Fatal(err)
		}
		if meta.Mode != cfg.mode {
			t.Fatalf("%s: stored as %v", cfg.name, meta.Mode)
		}
		ch := meta.Footer.RowGroups[1].Chunks[2]
		ranges := []struct {
			name        string
			off, length uint64
		}{
			{"whole object", 0, size},
			{"first byte", 0, 1},
			{"last byte", size - 1, 1},
			{"last byte of block 0", bs - 1, 1},
			{"first byte of block 1", bs, 1},
			{"straddles blocks 0|1", bs - 1, 2},
			{"exactly block 1", bs, bs},
			{"straddles stripes 0|1", k*bs - 1, 2},
			{"two and a half blocks", bs / 2, 2*bs + bs/2},
			{"one chunk", ch.Offset, ch.Size},
			{"straddles two chunks", ch.Offset - 1, 2},
			{"tail from mid-object", size / 2, size - size/2},
		}
		for _, r := range ranges {
			segs := s.segments(meta, r.off, r.length)
			got := make([]byte, r.length)
			var planned uint64
			for _, g := range segs {
				if g.length == 0 || g.outStart+g.length > r.length {
					t.Fatalf("%s/%s: segment %+v outside output of %d bytes", cfg.name, r.name, g, r.length)
				}
				if g.off+g.length > meta.Stripes[g.stripe].DataLens[g.bin] {
					t.Fatalf("%s/%s: segment %+v overruns its bin (%d bytes)",
						cfg.name, r.name, g, meta.Stripes[g.stripe].DataLens[g.bin])
				}
				block, _, err := s.fetchBlock(context.Background(), nil, meta, g.stripe, g.bin, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				copy(got[g.outStart:], block[g.off:g.off+g.length])
				planned += g.length
			}
			want := data[r.off : r.off+r.length]
			// Equal bytes with planned == length means the segments tile the
			// output: disjoint, gap-free, in the right places.
			if planned != r.length || !bytes.Equal(got, want) {
				t.Fatalf("%s/%s: %d segments cover %d of %d bytes or assemble wrong bytes",
					cfg.name, r.name, len(segs), planned, r.length)
			}
			viaGet, err := s.Get("obj", r.off, r.length)
			if err != nil || !bytes.Equal(viaGet, want) {
				t.Fatalf("%s/%s: Get disagrees with the object (err %v)", cfg.name, r.name, err)
			}
		}
		if cfg.mode == LayoutFAC {
			// FAC never splits a chunk: its plan is one segment.
			if segs := s.segments(meta, ch.Offset, ch.Size); len(segs) != 1 {
				t.Fatalf("FAC chunk planned as %d segments", len(segs))
			}
			continue
		}
		// Fixed layout is pure arithmetic: block i is bin i%k of stripe i/k.
		for _, c := range []struct {
			off, length uint64
			want        []segment
		}{
			{bs - 1, 2, []segment{{0, 0, bs - 1, 1, 0}, {0, 1, 0, 1, 1}}},
			{k*bs - 1, 2, []segment{{0, int(k) - 1, bs - 1, 1, 0}, {1, 0, 0, 1, 1}}},
			{bs, bs, []segment{{0, 1, 0, bs, 0}}},
			{bs / 2, 2 * bs, []segment{{0, 0, bs / 2, bs / 2, 0}, {0, 1, 0, bs, bs / 2}, {0, 2, 0, bs / 2, bs + bs/2}}},
		} {
			if got := s.segments(meta, c.off, c.length); !reflect.DeepEqual(got, c.want) {
				t.Fatalf("fixed [%d,+%d): planned %+v, want %+v", c.off, c.length, got, c.want)
			}
		}
	}
}
