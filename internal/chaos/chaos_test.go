package chaos

import (
	"testing"
	"time"
)

// TestFateDeterministic pins the seeded-replay property the soak chaos
// schedules depend on: the same seed yields the identical injected
// fault sequence, fate by fate, independent of evaluation order.
func TestFateDeterministic(t *testing.T) {
	mk := func() *Plan {
		return &Plan{
			Seed:      0xC0FFEE,
			DropProb:  0.1,
			DupProb:   0.05,
			DelayProb: 0.2,
			DelayMax:  time.Millisecond,
			Partitions: randomPartitions(0xC0FFEE,
				[]Link{{0, 0}, {1, 0}, {2, 1}}, 2, 16, 256),
		}
	}
	a, b := mk(), mk()
	links := []Link{{0, 0}, {1, 0}, {2, 1}}

	type fate struct {
		v Verdict
		d time.Duration
	}
	record := func(p *Plan, reverse bool) []fate {
		var out []fate
		for i := 0; i < len(links)*300*2; i++ {
			// Walk (link, seq, attempt) space in two different orders.
			idx := i
			if reverse {
				idx = len(links)*300*2 - 1 - i
			}
			link := links[idx%len(links)]
			seq := uint64(idx/len(links))%300 + 1
			attempt := idx%2 + 1
			v, d := p.Fate(link, seq, attempt)
			out = append(out, fate{v, d})
		}
		return out
	}
	fa := record(a, false)
	fb := record(b, true)
	// b was recorded in reverse order; flip it back before comparing.
	for i, j := 0, len(fb)-1; i < j; i, j = i+1, j-1 {
		fb[i], fb[j] = fb[j], fb[i]
	}
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("fate %d differs across evaluation orders: %v vs %v", i, fa[i], fb[i])
		}
	}

	// Some chaos must actually have been injected at these rates.
	st := a.Snapshot()
	if st.Drops == 0 || st.Dups == 0 || st.Delays == 0 || st.Partitions == 0 {
		t.Fatalf("expected every fault kind at these probabilities, got %+v", st)
	}
}

// TestFateSeedsDiffer sanity-checks that different seeds give different
// schedules (the randomized sweep would be pointless otherwise).
func TestFateSeedsDiffer(t *testing.T) {
	a := &Plan{Seed: 1, DropProb: 0.3}
	b := &Plan{Seed: 2, DropProb: 0.3}
	same := true
	for seq := uint64(1); seq <= 256; seq++ {
		va, _ := a.Fate(Link{0, 0}, seq, 1)
		vb, _ := b.Fate(Link{0, 0}, seq, 1)
		if va != vb {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical 256-fate prefixes")
	}
}

// TestPartitionWindowRefusesAllAttempts pins the partition semantics:
// inside the window every attempt fails (retries cannot punch through),
// outside it the same link delivers.
func TestPartitionWindowRefusesAllAttempts(t *testing.T) {
	p := &Plan{Seed: 9, Partitions: []Window{{Link: Link{0, 0}, From: 10, To: 20}}}
	for seq := uint64(10); seq < 20; seq++ {
		for attempt := 1; attempt <= 5; attempt++ {
			if v, _ := p.Fate(Link{0, 0}, seq, attempt); v != Partition {
				t.Fatalf("seq %d attempt %d inside window: got %v, want Partition", seq, attempt, v)
			}
		}
	}
	if v, _ := p.Fate(Link{0, 0}, 20, 1); v != deliver {
		t.Fatalf("seq 20 is outside the window: got %v, want Deliver", v)
	}
	if v, _ := p.Fate(Link{0, 1}, 15, 1); v != deliver {
		t.Fatalf("other link inside window seqs: got %v, want Deliver", v)
	}
	if !p.Partitioned(Link{0, 0}, 15) || p.Partitioned(Link{0, 0}, 20) || p.Partitioned(Link{0, 1}, 15) {
		t.Fatal("Partitioned disagrees with the window")
	}
	p.Heal()
	if p.Partitioned(Link{0, 0}, 15) {
		t.Fatal("a healed plan still cuts the link")
	}
}

// TestHeal pins that a healed plan injects nothing more.
func TestHeal(t *testing.T) {
	p := &Plan{Seed: 3, DropProb: 1}
	if v, _ := p.Fate(Link{0, 0}, 1, 1); v != Drop {
		t.Fatalf("pre-heal: got %v, want Drop", v)
	}
	p.Heal()
	for seq := uint64(1); seq < 64; seq++ {
		if v, _ := p.Fate(Link{0, 0}, seq, 1); v != deliver {
			t.Fatalf("post-heal seq %d: got %v, want Deliver", seq, v)
		}
	}
}

// TestParse pins the schedule grammar.
func TestParse(t *testing.T) {
	links := Links(2, 1)
	if want := []Link{{0, 0}, {1, 0}}; len(links) != 2 || links[0] != want[0] || links[1] != want[1] {
		t.Fatalf("Links(2, 1) = %v, want %v", links, want)
	}
	p, err := Parse("seed=7,drop=0.05,dup=0.02,delay=0.1:2ms,part=2x40@400", links)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || p.DropProb != 0.05 || p.DupProb != 0.02 || p.DelayProb != 0.1 {
		t.Fatalf("parsed plan = %+v", p)
	}
	if p.DelayMax != 2*time.Millisecond {
		t.Fatalf("DelayMax = %v, want 2ms", p.DelayMax)
	}
	if len(p.Partitions) != 4 {
		t.Fatalf("materialized %d windows, want 4", len(p.Partitions))
	}
	for _, w := range p.Partitions {
		if w.To-w.From != 40 || w.From < 1 || w.To > 401 {
			t.Fatalf("bad window %+v", w)
		}
		if !p.Partitioned(w.Link, w.From) {
			t.Fatalf("window %+v does not cut its link at its first seq", w)
		}
	}

	if _, err := Parse("drop=1.5", links); err == nil {
		t.Fatal("probability > 1 accepted")
	}
	if _, err := Parse("bogus=1", links); err == nil {
		t.Fatal("unknown term accepted")
	}
	if _, err := Parse("part=2y40", links); err == nil {
		t.Fatal("malformed partition spec accepted")
	}
	if p, err := Parse("", links); err != nil || len(p.Partitions) != 0 || p.DropProb != 0 {
		t.Fatal("empty spec should parse to a no-op plan")
	}
}

// TestZeroPlanDelivers pins that a nil/zero plan is a perfect network.
func TestZeroPlanDelivers(t *testing.T) {
	var p *Plan
	if v, _ := p.Fate(Link{0, 0}, 1, 1); v != deliver {
		t.Fatal("nil plan must deliver")
	}
	z := &Plan{}
	for seq := uint64(1); seq < 128; seq++ {
		if v, _ := z.Fate(Link{0, 0}, seq, 1); v != deliver {
			t.Fatal("zero plan must deliver")
		}
	}
}
