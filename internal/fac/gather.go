package fac

import (
	"cmp"
	"fmt"
	"slices"
)

// GatherRowGroups rearranges Algorithm 1's layout l so that each row group's
// chunks sit in bins of their own, the bins a placement can then put on one
// node. groups[i] is chunk i's row group, an index from 0; a negative one
// means none (a header or footer). It never splits a chunk and keeps every stripe's
// capacity, so the stripe count, every parity size and the stored bytes are
// l's. Two steps:
//
//   - Within each class of equal-size chunks holding two of one row group it
//     deals the class's slots out round robin over the row groups, so a
//     stripe's equal-size chunks come from different row groups. Bin sizes
//     do not change.
//   - It then hill-climbs: a chunk other than a stripe's head moves to, or
//     swaps with a chunk of, a bin holding its row group, when both bins stay
//     within capacity, no bin is emptied, the row group is then that bin's
//     majority and the co-located bytes rise.
//
// The co-located bytes of a stripe are, for each row group, the bytes of it
// in the one bin of the stripe where it is the majority and has the most
// bytes: two bins of one stripe cannot share a node, so a second bin with
// the same majority counts nothing. Neither step lets them fall.
//
// A chunk is offered only the bins holding its row group, less those shut
// to it, so a pass costs O(N·c) for N chunks and c chunks per row group, and
// there are at most maxGatherPasses.
func GatherRowGroups(l Layout, sizes []uint64, groups []int) Layout {
	if len(groups) != len(sizes) {
		panic(fmt.Sprintf("fac: %d group labels for %d chunks", len(groups), len(sizes)))
	}
	g := newGatherer(l, sizes, groups)
	g.breakTies()
	g.climb()
	return g.layout()
}

// maxGatherPasses bounds the hill-climb; on the TPC-H lineitem the third
// pass is the first that changes nothing.
const maxGatherPasses = 2

// gatherer is the mutable state of GatherRowGroups. Bins are numbered stripe
// by stripe, bin b being bin b%k of stripe b/k.
type gatherer struct {
	k       int
	sizes   []uint64
	group   []int     // chunk → row group, -1 for none
	bins    [][]int   // bin → its chunks
	load    []uint64  // bin → bytes
	caps    []uint64  // bin → its stripe's capacity
	held    [][]share // bin → its bytes per row group
	loc     []int     // chunk → bin
	score   []uint64  // stripe → co-located bytes
	major   []share   // bin → its majority row group
	byRG    [][]int   // row group → bins that ever held one of its chunks
	isHead  []bool    // chunk → heads its stripe
	scratch []share   // a stripe's majorities as rises weighs a change
}

// share is n chunks of row group rg making bytes bytes of one bin.
type share struct {
	rg    int
	bytes uint64
	n     int
}

func newGatherer(l Layout, sizes []uint64, groups []int) *gatherer {
	nb := len(l.Stripes) * l.K
	g := &gatherer{
		k: l.K, sizes: sizes,
		group: make([]int, len(sizes)), loc: make([]int, len(sizes)), isHead: make([]bool, len(sizes)),
		bins: make([][]int, nb), load: make([]uint64, nb), held: make([][]share, nb), major: make([]share, nb),
		caps: make([]uint64, nb), score: make([]uint64, len(l.Stripes)),
		scratch: make([]share, l.K),
	}
	rgs := 0
	for i, rg := range groups {
		g.group[i] = max(rg, -1)
		rgs = max(rgs, rg+1)
	}
	g.byRG = make([][]int, rgs)
	// One backing array each for the bins' chunks and shares. A bin's
	// chunks are a full slice, so the rare bin that grows copies itself
	// out; its shares have room for one more row group.
	chunks := make([]int, 0, len(sizes))
	shares := make([]share, 0, len(sizes)+nb)
	for si, st := range l.Stripes {
		for j, bin := range st.Bins {
			b := si*g.k + j
			g.caps[b] = st.Capacity
			at, sat := len(chunks), len(shares)
			chunks = append(chunks, bin...)
			g.bins[b] = chunks[at:len(chunks):len(chunks)]
			for _, c := range bin {
				g.loc[c] = b
				g.load[b] += sizes[c]
				rg := g.group[c]
				if rg < 0 {
					continue
				}
				i := slices.IndexFunc(shares[sat:], func(s share) bool { return s.rg == rg })
				if i < 0 {
					shares = append(shares, share{rg: rg})
					g.byRG[rg] = append(g.byRG[rg], b)
					i = len(shares) - 1 - sat
				}
				shares[sat+i].bytes += sizes[c]
				shares[sat+i].n++
			}
			n := len(shares) - sat
			shares = append(shares, share{})
			g.held[b] = shares[sat : sat+n : sat+n+1]
			g.major[b] = g.majority(b)
		}
		g.score[si] = stripeScore(g.major[si*g.k : (si+1)*g.k])
	}
	return g
}

// put appends chunk c to bin b.
func (g *gatherer) put(b, c int) {
	g.bins[b] = append(g.bins[b], c)
	g.load[b] += g.sizes[c]
	g.loc[c] = b
	g.hold(b, c)
}

// hold adds chunk c's bytes to bin b's share of its row group.
func (g *gatherer) hold(b, c int) {
	rg := g.group[c]
	if rg < 0 {
		return
	}
	if i := g.share(b, rg); i >= 0 {
		g.held[b][i].bytes += g.sizes[c]
		g.held[b][i].n++
		return
	}
	g.held[b] = append(g.held[b], share{rg, g.sizes[c], 1})
	if !slices.Contains(g.byRG[rg], b) {
		g.byRG[rg] = append(g.byRG[rg], b)
	}
}

// take removes chunk c from its bin.
func (g *gatherer) take(c int) {
	b := g.loc[c]
	g.bins[b] = slices.DeleteFunc(g.bins[b], func(x int) bool { return x == c })
	g.load[b] -= g.sizes[c]
	g.release(b, c)
}

// release takes chunk c's bytes out of bin b's share of its row group.
func (g *gatherer) release(b, c int) {
	rg := g.group[c]
	if rg < 0 {
		return
	}
	i := g.share(b, rg)
	g.held[b][i].bytes -= g.sizes[c]
	if g.held[b][i].n--; g.held[b][i].n == 0 {
		g.held[b] = slices.Delete(g.held[b], i, i+1)
	}
}

// share returns the index of rg's entry in bin b's held, or -1.
func (g *gatherer) share(b, rg int) int {
	for i, s := range g.held[b] {
		if s.rg == rg {
			return i
		}
	}
	return -1
}

// majority is the row group with the most bytes in bin b, a tie to the lower
// row group; rg -1 when b holds no grouped chunk.
func (g *gatherer) majority(b int) share { return g.after(b, -1, -1) }

// after is bin b's majority once chunk in (-1 for none) has joined it and
// chunk out (-1 for none) has left it.
func (g *gatherer) after(b, in, out int) share {
	gin, gout := -1, -1
	if in >= 0 {
		gin = g.group[in]
	}
	if out >= 0 {
		gout = g.group[out]
	}
	best, found := share{rg: -1}, gin < 0
	for _, s := range g.held[b] {
		if s.rg == gin {
			s.bytes += g.sizes[in]
			s.n++
			found = true
		}
		if s.rg == gout {
			s.bytes -= g.sizes[out]
			s.n--
		}
		if s.n > 0 && beats(s, best) {
			best = s
		}
	}
	if !found {
		if s := (share{gin, g.sizes[in], 1}); beats(s, best) {
			best = s
		}
	}
	return best
}

// beats reports whether s is a bin's majority over best.
func beats(s, best share) bool {
	return best.rg < 0 || s.bytes > best.bytes || s.bytes == best.bytes && s.rg < best.rg
}

// stripeScore is the co-located bytes of a stripe whose bins have the
// majorities majors: per row group, the most bytes one bin holds of it as its
// majority, a tie to the earlier bin.
func stripeScore(majors []share) uint64 {
	var total uint64
	for j, m := range majors {
		if m.rg >= 0 && counts(majors, j) {
			total += m.bytes
		}
	}
	return total
}

// counts reports whether bin j's majority counts toward its stripe's
// co-located bytes: no other bin holds more of that row group as its
// majority, nor as much and earlier.
func counts(majors []share, j int) bool {
	m := majors[j]
	for i, o := range majors {
		if i != j && o.rg == m.rg && (o.bytes > m.bytes || o.bytes == m.bytes && i < j) {
			return false
		}
	}
	return true
}

// rescore recomputes the majorities of bins, given in stripe order, and the
// scores of their stripes, and reports whether those scores, summed, rose.
func (g *gatherer) rescore(bins ...int) bool {
	var before, after uint64
	for _, b := range bins {
		g.major[b] = g.majority(b)
	}
	last := -1
	for _, b := range bins {
		if si := b / g.k; si != last {
			last = si
			before += g.score[si]
			g.score[si] = stripeScore(g.major[si*g.k : (si+1)*g.k])
			after += g.score[si]
		}
	}
	return after > before
}

// breakTies deals each class of equal-size chunks holding two of one row
// group over the class's slots round robin by row group — the first chunk of
// each row group, then the second of each, and so on — so that the few slots
// of a class one stripe holds go to different row groups. A class whose deal
// would not raise the co-located bytes keeps Algorithm 1's order.
func (g *gatherer) breakTies() {
	order := make([]int, len(g.sizes))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Or(cmp.Compare(g.sizes[a], g.sizes[b]), a-b) })
	d := dealer{rank: make([]int, len(g.sizes)), seen: make([]int, len(g.byRG))}
	for lo := 0; lo < len(order); {
		hi := lo + 1
		for hi < len(order) && g.sizes[order[hi]] == g.sizes[order[lo]] {
			hi++
		}
		if hi-lo > 1 {
			g.deal(order[lo:hi], &d)
		}
		lo = hi
	}
}

// dealer is breakTies' scratch space, reused from class to class.
type dealer struct {
	rank  []int // chunk → its deal key: rank in its row group, then row group
	seen  []int // row group → its chunks ranked so far; zeros between classes
	slots []int // a class's slots, bin·(N+1) + position
	bins  []int // the slots' bins
	was   []int // the chunk in each slot before the deal
	dealt []int // the chunk in each slot after it
}

// deal reassigns the slots of one equal-size class, its chunk indexes in
// ascending order.
func (g *gatherer) deal(class []int, d *dealer) {
	rgs, twice := len(g.byRG)+1, false
	for _, c := range class {
		d.rank[c] = len(class) * rgs // ungrouped chunks go last
		if rg := g.group[c]; rg >= 0 {
			d.rank[c] = d.seen[rg]*rgs + rg
			d.seen[rg]++
			twice = twice || d.seen[rg] > 1
		}
	}
	for _, c := range class {
		if rg := g.group[c]; rg >= 0 {
			d.seen[rg] = 0
		}
	}
	if !twice {
		return // no row group has two chunks of this size to keep apart
	}
	n := len(g.sizes) + 1
	d.slots, d.bins, d.was = d.slots[:0], d.bins[:0], d.was[:0]
	for _, c := range class {
		d.slots = append(d.slots, g.loc[c]*n+slices.Index(g.bins[g.loc[c]], c))
	}
	slices.Sort(d.slots) // stripe, then bin, then position order
	for _, s := range d.slots {
		d.bins = append(d.bins, s/n)
		d.was = append(d.was, g.bins[s/n][s%n])
	}
	d.dealt = append(d.dealt[:0], class...)
	slices.SortFunc(d.dealt, func(a, b int) int {
		return cmp.Or(d.rank[a]-d.rank[b], a-b)
	})
	fill := func(cs []int) {
		for i, s := range d.slots {
			b := s / n
			g.release(b, g.bins[b][s%n])
			g.bins[b][s%n] = cs[i]
			g.loc[cs[i]] = b
			g.hold(b, cs[i])
		}
	}
	fill(d.dealt)
	if !g.rescore(d.bins...) {
		fill(d.was)
		g.rescore(d.bins...)
	}
}

// climb is the hill-climb: each grouped chunk but a head, in index order, is
// offered every other bin holding its row group that is not shut, moved there
// if it fits and otherwise swapped with one of that bin's chunks of another
// row group; the first change that raises the co-located bytes is made.
func (g *gatherer) climb() {
	for si := range g.score {
		if head := g.bins[si*g.k]; len(head) > 0 {
			g.isHead[head[0]] = true
		}
	}
	var open []int                   // the bins of each row group a chunk may enter
	at := make([]int, len(g.byRG)+1) // row group rg's are open[at[rg]:at[rg+1]]
	for range maxGatherPasses {
		open = open[:0]
		for rg, bins := range g.byRG {
			at[rg] = len(open)
			for _, b := range bins {
				if !g.shut(b) {
					open = append(open, b)
				}
			}
		}
		at[len(g.byRG)] = len(open)
		changed := false
		for c, rg := range g.group {
			if rg < 0 || g.isHead[c] {
				continue
			}
			for _, to := range open[at[rg]:at[rg+1]] {
				if to != g.loc[c] && g.improve(c, to) {
					changed = true
					break
				}
			}
		}
		if !changed {
			return
		}
	}
}

// shut reports whether bin b is full and holds chunks of one row group
// only: no chunk but a zero-size one fits, and none of its chunks is worth
// swapping for one of that row group. A pass offers chunks no shut bin.
func (g *gatherer) shut(b int) bool {
	held := g.held[b]
	return g.load[b] == g.caps[b] && len(held) == 1 && held[0].n == len(g.bins[b])
}

// improve tries chunk c into bin to, alone or in exchange for one of to's
// chunks, and makes the first change after which c's row group is to's
// majority and the co-located bytes rise. A change is judged before it is
// made.
func (g *gatherer) improve(c, to int) bool {
	from, rg, sz := g.loc[c], g.group[c], g.sizes[c]
	i := g.share(to, rg)
	if i < 0 {
		return false
	}
	// The row group can become to's majority only if what to holds of it,
	// with c, is at least the majority's bytes, less any chunk of the
	// majority a swap takes out.
	have, top := g.held[to][i].bytes+sz, g.major[to]
	capFrom, capTo := g.caps[from], g.caps[to]
	if len(g.bins[from]) > 1 && g.load[to]+sz <= capTo && (top.rg == rg || have >= top.bytes) {
		if mt := g.after(to, c, -1); mt.rg == rg && g.rises(from, g.after(from, -1, c), to, mt) {
			g.take(c)
			g.put(to, c)
			g.rescore(min(from, to), max(from, to))
			return true
		}
	}
	for _, d := range g.bins[to] {
		dz, dg := g.sizes[d], g.group[d]
		if g.isHead[d] || dg == rg || g.load[from]-sz+dz > capFrom || g.load[to]-dz+sz > capTo {
			continue
		}
		if top.rg != rg && have < top.bytes && (dg != top.rg || have+dz < top.bytes) {
			continue
		}
		if mt := g.after(to, c, d); mt.rg == rg && g.rises(from, g.after(from, d, c), to, mt) {
			g.bins[from][slices.Index(g.bins[from], c)] = d
			g.bins[to][slices.Index(g.bins[to], d)] = c
			g.release(from, c)
			g.release(to, d)
			g.hold(from, d)
			g.hold(to, c)
			g.load[from] += dz - sz
			g.load[to] += sz - dz
			g.loc[c], g.loc[d] = to, from
			g.rescore(min(from, to), max(from, to))
			return true
		}
	}
	return false
}

// rises reports whether bins from and to, with the majorities mf and mt,
// would raise the co-located bytes of their stripes.
func (g *gatherer) rises(from int, mf share, to int, mt share) bool {
	sf, st := from/g.k, to/g.k
	with := func(si int) uint64 {
		at := si * g.k
		majors := append(g.scratch[:0], g.major[at:at+g.k]...)
		if sf == si {
			majors[from-at] = mf
		}
		if st == si {
			majors[to-at] = mt
		}
		return stripeScore(majors)
	}
	before, after := g.score[sf], with(sf)
	if st != sf {
		before, after = before+g.score[st], after+with(st)
	}
	return after > before
}

// layout returns the gathered layout.
func (g *gatherer) layout() Layout {
	out := Layout{K: g.k, Stripes: make([]Stripe, len(g.score))}
	bins := make([][]int, len(g.bins))
	for b, bin := range g.bins {
		bins[b] = slices.Clip(bin)
	}
	for si := range out.Stripes {
		at, end := si*g.k, (si+1)*g.k
		out.Stripes[si] = Stripe{Capacity: g.caps[at], Bins: bins[at:end:end], BinSizes: g.load[at:end:end]}
	}
	return out
}
