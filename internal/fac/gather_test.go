package fac

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
)

// total is the layout's co-located bytes.
func (g *gatherer) total() uint64 {
	var t uint64
	for _, s := range g.score {
		t += s
	}
	return t
}

// lineitemChunks are the chunk sizes of the TPC-H lineitem `lpq-tool gen`
// writes (10 row groups × 16 columns), row group by row group.
var lineitemChunks = [10][16]uint64{
	{7547, 135047, 105047, 15741, 45421, 195571, 30109, 30093, 15027, 7525, 90047, 90047, 90047, 15073, 22558, 360221},
	{7547, 135047, 105047, 15763, 45421, 195675, 30109, 30093, 15027, 7525, 90047, 90047, 90047, 15073, 22558, 359318},
	{7547, 135047, 105047, 15767, 45421, 195611, 30109, 30093, 15027, 7525, 90047, 90047, 90047, 15073, 22558, 356819},
	{7547, 135047, 105047, 15730, 45421, 195587, 30109, 30093, 15027, 7525, 90047, 90047, 90047, 15073, 22558, 360247},
	{7547, 135047, 105047, 15749, 45421, 195611, 30109, 30093, 15027, 7525, 90047, 90047, 90047, 15073, 22558, 358793},
	{7547, 135047, 105047, 15832, 45421, 195579, 30109, 30093, 15027, 7525, 90047, 90047, 90047, 15073, 22558, 355336},
	{7547, 135047, 105047, 15819, 45421, 195635, 30109, 30093, 15027, 7525, 90047, 90047, 90047, 15073, 22558, 375347},
	{7547, 135047, 105047, 15929, 45421, 195707, 30109, 30093, 15027, 7525, 90047, 90047, 90047, 15073, 22558, 365636},
	{7547, 135047, 105047, 15790, 45421, 195627, 30109, 30093, 15027, 7525, 90047, 90047, 90047, 15073, 22558, 361596},
	{7547, 135047, 105047, 15714, 45421, 195515, 30109, 30093, 15027, 7525, 90047, 90047, 90047, 15073, 22558, 370483},
}

// lineitemItems lays lineitemChunks out as a store Put does: the 4-byte
// header, the chunks row group by row group, then the footer, header and
// footer in no row group.
func lineitemItems() (sizes []uint64, groups []int) {
	sizes, groups = []uint64{4}, []int{-1}
	for rg, cols := range lineitemChunks {
		for _, sz := range cols {
			sizes, groups = append(sizes, sz), append(groups, rg)
		}
	}
	return append(sizes, 6257), append(groups, -1)
}

// rowGroupItems is a synthetic object of rgs row groups × cols columns
// whose column sizes vary by row group as lineitem's do: some columns
// identical in every row group, the others a little apart.
func rowGroupItems(rng *rand.Rand, rgs, cols int) (sizes []uint64, groups []int) {
	base := randomSizes(rng, cols, 4<<10, 400<<10)
	for rg := range rgs {
		for c, sz := range base {
			if c%3 != 0 {
				sz += uint64(rng.Intn(int(sz/50) + 1))
			}
			sizes, groups = append(sizes, sz), append(groups, rg)
		}
	}
	return sizes, groups
}

// checkGathered holds GatherRowGroups' output to its contract against
// Algorithm 1's layout of the same chunks: every chunk placed exactly once
// and no bin over capacity (Validate); the same stripes, capacities and
// stored bytes; no bin emptied; and no fewer co-located bytes.
func checkGathered(t *testing.T, alg1, got Layout, sizes []uint64, groups []int) {
	t.Helper()
	if err := got.Validate(sizes); err != nil {
		t.Fatal(err)
	}
	if len(got.Stripes) != len(alg1.Stripes) || got.K != alg1.K {
		t.Fatalf("%d stripes of %d bins, Algorithm 1 made %d of %d", len(got.Stripes), got.K, len(alg1.Stripes), alg1.K)
	}
	for si, st := range got.Stripes {
		if st.Capacity != alg1.Stripes[si].Capacity {
			t.Fatalf("stripe %d capacity %d, Algorithm 1's %d", si, st.Capacity, alg1.Stripes[si].Capacity)
		}
		for j, bin := range st.Bins {
			if len(bin) == 0 && len(alg1.Stripes[si].Bins[j]) > 0 {
				t.Fatalf("stripe %d bin %d emptied", si, j)
			}
		}
	}
	if n := alg1.K + 3; got.StoredBytes(n) != alg1.StoredBytes(n) {
		t.Fatalf("stores %d bytes, Algorithm 1 %d", got.StoredBytes(n), alg1.StoredBytes(n))
	}
	before, after := newGatherer(alg1, sizes, groups).total(), newGatherer(got, sizes, groups).total()
	if after < before {
		t.Fatalf("co-located bytes fell from %d to %d", before, after)
	}
}

// TestGatherRowGroupsLineitem: on lineitem the pass keeps Algorithm 1's
// stripes and stored bytes, raises the co-located bytes, and leaves no
// stripe with two equal-size chunks of one row group in different bins.
func TestGatherRowGroupsLineitem(t *testing.T) {
	sizes, groups := lineitemItems()
	alg1 := ConstructStripes(6, sizes)
	got := GatherRowGroups(alg1, sizes, groups)
	checkGathered(t, alg1, got, sizes, groups)
	before, after := newGatherer(alg1, sizes, groups).total(), newGatherer(got, sizes, groups).total()
	if after <= before {
		t.Fatalf("co-located bytes %d, Algorithm 1's %d: nothing gathered", after, before)
	}
	for si, st := range got.Stripes {
		type tie struct {
			size uint64
			rg   int
		}
		at := map[tie]int{}
		for j, bin := range st.Bins {
			for _, c := range bin {
				if k := (tie{sizes[c], groups[c]}); groups[c] >= 0 {
					if j0, ok := at[k]; ok && j0 != j {
						t.Errorf("stripe %d: row group %d's %d-byte chunks in bins %d and %d", si, groups[c], sizes[c], j0, j)
					}
					at[k] = j
				}
			}
		}
	}
	t.Logf("co-located bytes %d of %d (Algorithm 1: %d)", after, got.DataBytes(), before)
}

// TestGatherRowGroupsWithoutGroups: chunks in no row group give nothing to
// gather, and the layout comes back as Algorithm 1 built it.
func TestGatherRowGroupsWithoutGroups(t *testing.T) {
	sizes, groups := lineitemItems()
	for i := range groups {
		groups[i] = -1
	}
	alg1 := ConstructStripes(6, sizes)
	if got := GatherRowGroups(alg1, sizes, groups); !reflect.DeepEqual(got, alg1) {
		t.Fatal("a layout with no row groups changed")
	}
}

// TestGatherRowGroupsProperty runs the contract over random objects: sizes
// drawn from a few values (many exact ties) or a wide range, labels from one
// row group, from as many row groups as chunks, or from a few, some chunks
// zero-sized and some in no row group.
func TestGatherRowGroupsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for trial := range 400 {
		n := 1 + rng.Intn(120)
		k := 1 + rng.Intn(8)
		sizes, groups := make([]uint64, n), make([]int, n)
		values := 1 + rng.Intn(6)
		labels := []int{1, n, 1 + rng.Intn(12)}[trial%3]
		for i := range sizes {
			switch {
			case trial%4 == 0:
				sizes[i] = uint64(rng.Intn(1 << 20))
			default:
				sizes[i] = uint64(1+rng.Intn(values)) * 1000
			}
			if rng.Intn(10) == 0 {
				sizes[i] = 0
			}
			groups[i] = rng.Intn(labels)
			if labels == n {
				groups[i] = i
			}
			if rng.Intn(20) == 0 {
				groups[i] = -1
			}
		}
		alg1 := ConstructStripes(k, sizes)
		checkGathered(t, alg1, GatherRowGroups(alg1, sizes, groups), sizes, groups)
		rs, rg := rowGroupItems(rng, 1+rng.Intn(20), 1+rng.Intn(20))
		alg1 = ConstructStripes(k, rs)
		checkGathered(t, alg1, GatherRowGroups(alg1, rs, rg), rs, rg)
	}
}

// FuzzGatherRowGroups: any sizes, labels and k keep the contract. Each
// 3-byte record is one chunk: two bytes of size, drawn from a small range
// so exact ties are common, and one of row group, 255 for none.
func FuzzGatherRowGroups(f *testing.F) {
	f.Add(uint8(6), []byte{1, 0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1})
	f.Add(uint8(3), []byte{0, 0, 255, 0, 0, 0, 5, 0, 1, 5, 0, 2})
	f.Add(uint8(1), []byte{9, 9, 9})
	f.Fuzz(func(t *testing.T, k uint8, data []byte) {
		var sizes []uint64
		var groups []int
		for ; len(data) >= 3; data = data[3:] {
			sizes = append(sizes, uint64(binary.LittleEndian.Uint16(data)%512))
			g := int(data[2])
			if g == 255 {
				g = -1
			}
			groups = append(groups, g%16)
		}
		if k = k%12 + 1; len(sizes) == 0 {
			return
		}
		alg1 := ConstructStripes(int(k), sizes)
		checkGathered(t, alg1, GatherRowGroups(alg1, sizes, groups), sizes, groups)
	})
}

// BenchmarkGatherRowGroups times the pass alone, on lineitem and on a
// 1,000-row-group, 16-column object.
func BenchmarkGatherRowGroups(b *testing.B) {
	rs, rg := rowGroupItems(rand.New(rand.NewSource(1)), 1000, 16)
	ls, lg := lineitemItems()
	for _, bc := range []struct {
		name   string
		sizes  []uint64
		groups []int
	}{{"lineitem", ls, lg}, {"1000x16", rs, rg}} {
		b.Run(bc.name, func(b *testing.B) {
			l := ConstructStripes(6, bc.sizes)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				GatherRowGroups(l, bc.sizes, bc.groups)
			}
		})
	}
}
