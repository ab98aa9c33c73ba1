package shard

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// oracleBalance is Balance as it was before the Stage owned its scratch.
func oracleBalance(ranges [][]Entry, workers int) [][]int {
	order := make([]int, len(ranges))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return len(ranges[order[a]]) > len(ranges[order[b]]) })
	assign := make([][]int, workers)
	load := make([]int, workers)
	for _, ri := range order {
		if len(ranges[ri]) == 0 {
			continue
		}
		min := 0
		for w := 1; w < workers; w++ {
			if load[w] < load[min] {
				min = w
			}
		}
		assign[min] = append(assign[min], ri)
		load[min] += len(ranges[ri])
	}
	return assign
}

// normalize maps empty per-worker lists to nil so DeepEqual compares
// contents only.
func normalize(assign [][]int) [][]int {
	out := make([][]int, len(assign))
	for w, l := range assign {
		if len(l) > 0 {
			out[w] = l
		}
	}
	return out
}

func TestWidthAndRangeOf(t *testing.T) {
	w := Width(1000, 16)
	if w != 63 {
		t.Fatalf("Width(1000,16) = %d, want 63", w)
	}
	if RangeOf(0, w, 16) != 0 {
		t.Fatal("first vertex must land in range 0")
	}
	if RangeOf(999, w, 16) != 15 {
		t.Fatalf("last vertex lands in %d, want 15", RangeOf(999, w, 16))
	}
	// Out-of-range vertices clamp to the last range.
	if RangeOf(5000, w, 16) != 15 {
		t.Fatal("overflow vertex must clamp")
	}
	if Width(0, 4) < 1 {
		t.Fatal("width must stay positive")
	}
}

// Property: Balance assigns every non-empty range exactly once, and the
// heaviest worker carries at most the lightest worker's load plus the
// largest single range (the greedy bound).
func TestBalanceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nRanges := 1 + rng.Intn(64)
		workers := 1 + rng.Intn(16)
		ranges := make([][]Entry, nRanges)
		largest := 0
		total := 0
		maxLen := []int{3, 200}[rng.Intn(2)] // short lists: many equally long ones
		for i := range ranges {
			n := rng.Intn(maxLen)
			ranges[i] = make([]Entry, n)
			total += n
			if n > largest {
				largest = n
			}
		}
		var st Stage
		assign := st.Balance(ranges, workers)
		if len(assign) != workers {
			return false
		}
		// The scratch-owning Balance is the allocating one it replaced,
		// down to the order of equally long ranges: the order decides which
		// worker drains what, and so the device write sequence.
		if want := oracleBalance(ranges, workers); !reflect.DeepEqual(normalize(assign), normalize(want)) {
			t.Errorf("Balance = %v, oracle %v", assign, want)
			return false
		}
		seen := map[int]bool{}
		loads := make([]int, workers)
		for w, list := range assign {
			for _, ri := range list {
				if seen[ri] || len(ranges[ri]) == 0 {
					return false
				}
				seen[ri] = true
				loads[w] += len(ranges[ri])
			}
		}
		assigned := 0
		for _, l := range loads {
			assigned += l
		}
		if assigned != total {
			return false
		}
		min, max := loads[0], loads[0]
		for _, l := range loads {
			if l < min {
				min = l
			}
			if l > max {
				max = l
			}
		}
		return max <= min+largest
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
