package shard

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestHash64Golden pins the partition hash to golden values. This is a
// compatibility contract, not a tuning choice: the hash is seedless and
// process-independent precisely so that a restarted process (or a
// promoted replica) routes every vertex to the same shard. Changing
// these values silently reshuffles every deployed partition map.
func TestHash64Golden(t *testing.T) {
	golden := []struct {
		v    graph.VID
		want uint64
	}{
		{0, 0x0000000000000000},
		{1, 0x5692161D100B05E5},
		{2, 0xDBD238973A2B148A},
		{3, 0x1E535EEDE31428F0},
		{42, 0xA759EA27D4727622},
		{255, 0x33914DAE20F87536},
		{1 << 20, 0xB7C4539491951F72},
	}
	for _, g := range golden {
		if got := hash64(g.v); got != g.want {
			t.Errorf("hash64(%d) = %#016x, want %#016x", g.v, got, g.want)
		}
	}
}

// TestOwnerGolden pins concrete routing decisions of the default 4-shard
// deployment, the same restart-stability contract one level up.
func TestOwnerGolden(t *testing.T) {
	m, err := NewSlotMap(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	golden := []struct {
		v    graph.VID
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 0}, {42, 2}, {255, 2}, {1 << 20, 2},
	}
	for _, g := range golden {
		if got := m.Owner(g.v); got != g.want {
			t.Errorf("Owner(%d) = %d, want %d", g.v, got, g.want)
		}
	}
}

// TestOwnerStableAcrossInstances: two independently built maps with the
// same (shards, slots) agree on every owner — the property that makes a
// process restart, or a reconfiguration that preserves the shard count,
// route identically with no coordination service.
func TestOwnerStableAcrossInstances(t *testing.T) {
	for _, tc := range []struct{ shards, slots int }{
		{1, 0}, {2, 0}, {4, 0}, {4, 1024}, {7, 0}, {16, 64},
	} {
		a, err := NewSlotMap(tc.shards, tc.slots)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewSlotMap(tc.shards, tc.slots) // "restarted" instance
		if err != nil {
			t.Fatal(err)
		}
		for v := graph.VID(0); v < 1<<14; v++ {
			if a.Owner(v) != b.Owner(v) {
				t.Fatalf("(%d shards, %d slots): Owner(%d) differs across instances: %d vs %d",
					tc.shards, tc.slots, v, a.Owner(v), b.Owner(v))
			}
		}
	}
}

// TestOwnerRange: every owner is a valid shard index, and with the
// default ring every shard owns at least one vertex in a modest ID
// sweep (no silent empty partitions).
func TestOwnerRange(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4, 8, 16} {
		m, err := NewSlotMap(shards, 0)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]int, shards)
		for v := graph.VID(0); v < 1<<14; v++ {
			o := m.Owner(v)
			if o < 0 || o >= shards {
				t.Fatalf("%d shards: Owner(%d) = %d out of range", shards, v, o)
			}
			seen[o]++
		}
		for s, n := range seen {
			if n == 0 {
				t.Errorf("%d shards: shard %d owns no vertex in the sweep", shards, s)
			}
		}
	}
}

// TestSlotBalance: the round-robin slot table gives every shard within
// one slot of slots/shards — the balance that bounds hash skew.
func TestSlotBalance(t *testing.T) {
	for _, tc := range []struct{ shards, slots int }{
		{4, 256}, {3, 256}, {7, 100}, {16, 256}, {5, 5},
	} {
		m, err := NewSlotMap(tc.shards, tc.slots)
		if err != nil {
			t.Fatal(err)
		}
		// Count slots per shard through the public surface: sweep vertex IDs
		// until every slot has been observed once, attributing each slot to
		// its owner.
		counts := make([]int, tc.shards)
		hit := make(map[int]bool)
		for v := graph.VID(0); len(hit) < m.Slots() && v < 1<<20; v++ {
			s := m.slot(v)
			if hit[s] {
				continue
			}
			hit[s] = true
			counts[m.Owner(v)]++
		}
		if len(hit) != m.Slots() {
			t.Fatalf("(%d,%d): sweep hit only %d of %d slots", tc.shards, tc.slots, len(hit), m.Slots())
		}
		min, max := counts[0], counts[0]
		for _, n := range counts {
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
		}
		if max-min > 1 {
			t.Errorf("(%d shards, %d slots): slot counts %v spread %d, want <= 1",
				tc.shards, tc.slots, counts, max-min)
		}
	}
}

// TestSplitMatchesOwner: Split partitions exactly by Owner of the edge
// source, preserving arrival order within each part and losing nothing.
func TestSplitMatchesOwner(t *testing.T) {
	m, err := NewSlotMap(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	var edges []graph.Edge
	state := uint64(1)
	for i := 0; i < 5000; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		edges = append(edges, graph.Edge{
			Src: graph.VID(state>>33) % 512,
			Dst: uint32(state) % 512,
		})
	}
	parts := m.Split(edges, nil)
	if len(parts) != 4 {
		t.Fatalf("Split returned %d parts, want 4", len(parts))
	}
	total := 0
	idx := make([]int, 4)
	for p, part := range parts {
		total += len(part)
		for _, e := range part {
			if m.Owner(e.Src) != p {
				t.Fatalf("edge (%d,%d) in part %d, owner is %d", e.Src, e.Dst, p, m.Owner(e.Src))
			}
		}
	}
	if total != len(edges) {
		t.Fatalf("Split kept %d of %d edges", total, len(edges))
	}
	// Order within each part is arrival order.
	for _, e := range edges {
		p := m.Owner(e.Src)
		if parts[p][idx[p]] != e {
			t.Fatalf("part %d out of order at %d", p, idx[p])
		}
		idx[p]++
	}
	// Buffer reuse truncates and refills.
	again := m.Split(edges[:100], parts)
	n := 0
	for _, part := range again {
		n += len(part)
	}
	if n != 100 {
		t.Fatalf("recycled Split kept %d of 100 edges", n)
	}
}

// TestNewSlotMapErrors pins the constructor's validation.
func TestNewSlotMapErrors(t *testing.T) {
	if _, err := NewSlotMap(0, 0); err == nil {
		t.Error("0 shards accepted")
	}
	if _, err := NewSlotMap(-1, 0); err == nil {
		t.Error("negative shards accepted")
	}
	if _, err := NewSlotMap(1<<16+1, 1<<17); err == nil {
		t.Error("65537 shards accepted")
	}
	if _, err := NewSlotMap(8, 4); err == nil {
		t.Error("more shards than slots accepted")
	}
	if m, err := NewSlotMap(1, 0); err != nil || m.Slots() != defaultSlots {
		t.Errorf("default ring: m=%v err=%v", m, err)
	}
}

// TestPartOfGolden pins the sub-graph placement like TestHash64Golden pins
// the slot hash: it decides which arena of a persistent heap holds a vertex,
// and a store recovered under a different function refuses the heap
// (core.Recover's placement check) rather than lose half of it.
func TestPartOfGolden(t *testing.T) {
	for _, c := range []struct {
		v          graph.VID
		p2, p3, p4 int
	}{
		{0, 0, 0, 0}, {1, 0, 1, 1}, {2, 1, 2, 3}, {3, 0, 0, 0}, {4, 1, 2, 2},
		{5, 1, 2, 2}, {6, 1, 2, 3}, {7, 0, 0, 0}, {1 << 16, 1, 2, 3}, {1<<31 - 1, 0, 1, 1},
	} {
		if p2, p3, p4 := PartOf(c.v, 2), PartOf(c.v, 3), PartOf(c.v, 4); p2 != c.p2 || p3 != c.p3 || p4 != c.p4 {
			t.Errorf("PartOf(%d, 2|3|4) = %d, %d, %d, want %d, %d, %d", c.v, p2, p3, p4, c.p2, c.p3, c.p4)
		}
		if p := PartOf(c.v, 1); p != 0 {
			t.Errorf("PartOf(%d, 1) = %d", c.v, p)
		}
	}
}

// TestPartOfBalancesRMAT: gen.RMAT does not scramble vertex IDs, so any bit
// of an ID is clear with probability a+b = 0.76 and `v mod P` puts 76 % of
// every direction on partition 0. PartOf must give every partition its
// 1/P of the out- and of the in-entries, within 2 points — and, because a
// cluster shard's store only ever sees the sources its SlotMap slots own,
// inside each of the four shards too. There the band is 4 points: a shard
// holds a quarter of the sources, so the stream's heaviest vertices weigh
// four times as much (vertex 0 alone is 3.6 % of shard 0's out-entries). A
// PartOf on the slot map's own bits, hash64(v) % 256 % P, would read 100/0
// in every shard.
func TestPartOfBalancesRMAT(t *testing.T) {
	edges := gen.RMAT(17, 1<<21, 7)
	const shards = 4
	sm, err := NewSlotMap(shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{2, 4} {
		var all [2][]int
		var inShard [shards][2][]int
		for d := 0; d < 2; d++ {
			all[d] = make([]int, parts)
			for o := range inShard {
				inShard[o][d] = make([]int, parts)
			}
		}
		for _, e := range edges {
			o := sm.Owner(e.Src)
			for d := 0; d < 2; d++ {
				p := PartOf(Of(d, e).V, parts)
				all[d][p]++
				inShard[o][d][p]++
			}
		}
		check := func(where string, counts []int, band float64) {
			total := 0
			for _, c := range counts {
				total += c
			}
			for p, c := range counts {
				if share := float64(c) / float64(total); math.Abs(share-1/float64(parts)) > band {
					t.Errorf("P=%d %s: partition %d holds %.1f %% of the entries, want %.1f ± %.0f", parts, where, p, 100*share, 100/float64(parts), 100*band)
				}
			}
		}
		for d, dir := range []string{"out", "in"} {
			check(dir, all[d], 0.02)
			for o := range inShard {
				check(fmt.Sprintf("%s, shard %d", dir, o), inShard[o][d], 0.04)
			}
		}
	}
}

// TestPartOfBalancesScrambledIDs is the other side of the property above: the
// same stream with its IDs permuted at random (Graph500's scrambling, a real
// graph's arbitrary IDs), where `v mod P` is balanced as well and the hash
// has nothing to fix. Both must stay within 2 points of 1/P there.
func TestPartOfBalancesScrambledIDs(t *testing.T) {
	edges := gen.RMAT(17, 1<<21, 7)
	perm := rand.New(rand.NewSource(7)).Perm(1 << 17)
	for _, parts := range []int{2, 4} {
		var hash, mod [2][4]int
		for _, e := range edges {
			for d := 0; d < 2; d++ {
				v := graph.VID(perm[Of(d, e).V])
				hash[d][PartOf(v, parts)]++
				mod[d][int(v)%parts]++
			}
		}
		for d, dir := range []string{"out", "in"} {
			for p := 0; p < parts; p++ {
				for name, c := range map[string]int{"PartOf": hash[d][p], "v mod P": mod[d][p]} {
					if share := float64(c) / float64(len(edges)); math.Abs(share-1/float64(parts)) > 0.02 {
						t.Errorf("P=%d %s, %s: partition %d holds %.1f %% of the entries, want %.1f ± 2", parts, dir, name, p, 100*share, 100/float64(parts))
					}
				}
			}
		}
	}
}
