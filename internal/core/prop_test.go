package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/prop"
	"repro/internal/xpsim"
)

// typedOut collects v's out-neighbors passing f as a nbr→label map.
func typedOut(t *testing.T, s interface {
	VisitOutTyped(*xpsim.Ctx, graph.VID, prop.Filter, func(uint32, uint16)) error
}, v graph.VID, f prop.Filter) map[uint32]uint16 {
	t.Helper()
	ctx := xpsim.NewCtx(0)
	got := map[uint32]uint16{}
	if err := s.VisitOutTyped(ctx, v, f, func(nbr uint32, lbl uint16) {
		got[nbr] = lbl
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestMixedTypedUntypedRecovery pins the mixed-chain contract across a
// recovery round trip: edges ingested through the plain path read back
// with the default label, typed edges keep theirs, and vertex properties
// and the label table survive Recover.
func TestMixedTypedUntypedRecovery(t *testing.T) {
	m, h := testMachine()
	opts := Options{Name: "proprec", NumVertices: 64,
		LogCapacity: 1 << 10, ArchiveThreshold: 16, ArchiveThreads: 2, Props: true}
	s, err := New(m, h, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	follows, err := s.RegisterLabel("follows")
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := s.RegisterLabel("blocks")
	if err != nil {
		t.Fatal(err)
	}

	// Typed chain 1→2→3 plus a blocks edge, interleaved with untyped
	// ingest through the plain path, plus a typed batch whose labels
	// slice is short (the tail pads with the default label).
	if _, err := s.IngestTyped([]graph.Edge{{Src: 1, Dst: 2}, {Src: 2, Dst: 3}},
		[]uint16{follows, follows}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest([]graph.Edge{{Src: 1, Dst: 5}, {Src: 3, Dst: 6}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.IngestTyped([]graph.Edge{{Src: 1, Dst: 4}, {Src: 1, Dst: 6}},
		[]uint16{blocks}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetProps([]graph.PropSet{{V: 2, Key: 1, Val: 30}, {V: 4, Key: 1, Val: 7}}); err != nil {
		t.Fatal(err)
	}
	if err := s.FlushAllVbufs(); err != nil {
		t.Fatal(err)
	}

	check := func(s *Store, when string) {
		t.Helper()
		all := typedOut(t, s, 1, prop.Filter{})
		want := map[uint32]uint16{2: follows, 4: blocks, 5: 0, 6: 0}
		if len(all) != len(want) {
			t.Fatalf("%s: out(1) = %v, want %v", when, all, want)
		}
		for nbr, lbl := range want {
			if all[nbr] != lbl {
				t.Fatalf("%s: label(1→%d) = %d, want %d", when, nbr, all[nbr], lbl)
			}
		}
		onlyFollows := typedOut(t, s, 1, prop.Filter{Types: []uint16{follows}})
		if len(onlyFollows) != 1 || onlyFollows[2] != follows {
			t.Fatalf("%s: follows-filtered out(1) = %v, want {2:%d}", when, onlyFollows, follows)
		}
		// A real predicate never matches an unset property: only v2
		// (age 30) survives age≥10 among 1's neighbors; v4 has age 7.
		aged := typedOut(t, s, 1, prop.Filter{Key: 1, Op: prop.OpGe, Val: 10})
		if len(aged) != 1 || aged[2] != follows {
			t.Fatalf("%s: age≥10 out(1) = %v, want {2:%d}", when, aged, follows)
		}
		if v, ok, err := s.VProp(2, 1); err != nil || !ok || v != 30 {
			t.Fatalf("%s: VProp(2,1) = %d,%v,%v, want 30,true,nil", when, v, ok, err)
		}
		if _, ok, err := s.VProp(5, 1); err != nil || ok {
			t.Fatalf("%s: VProp(5,1) ok=%v err=%v, want unset", when, ok, err)
		}
		labels := s.Labels()
		if len(labels) != 3 || labels[follows] != "follows" || labels[blocks] != "blocks" {
			t.Fatalf("%s: label table = %v", when, labels)
		}
	}
	check(s, "live")

	s = nil
	rs, _, err := Recover(m, h, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	check(rs, "recovered")

	// The recovered store keeps growing: more typed and untyped edges
	// land with the same semantics through a second round trip.
	if _, err := rs.IngestTyped([]graph.Edge{{Src: 5, Dst: 2}}, []uint16{follows}); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Ingest([]graph.Edge{{Src: 5, Dst: 3}}); err != nil {
		t.Fatal(err)
	}
	if err := rs.FlushAllVbufs(); err != nil {
		t.Fatal(err)
	}
	rs = nil
	r2, _, err := Recover(m, h, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	check(r2, "recovered twice")
	out5 := typedOut(t, r2, 5, prop.Filter{})
	if len(out5) != 2 || out5[2] != follows || out5[3] != 0 {
		t.Fatalf("out(5) after second recovery = %v, want {2:%d, 3:0}", out5, follows)
	}
}

// TestIngestTypedWithoutProps pins the fail-closed write surface of a
// propless store.
func TestIngestTypedWithoutProps(t *testing.T) {
	m, h := testMachine()
	s, err := New(m, h, nil, Options{Name: "noprop", NumVertices: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.IngestTyped([]graph.Edge{{Src: 1, Dst: 2}}, []uint16{1}); err != ErrNoProps {
		t.Fatalf("IngestTyped = %v, want ErrNoProps", err)
	}
	if err := s.SetProps([]graph.PropSet{{V: 1, Key: 1, Val: 1}}); err != ErrNoProps {
		t.Fatalf("SetProps = %v, want ErrNoProps", err)
	}
	if _, err := s.RegisterLabel("x"); err != ErrNoProps {
		t.Fatalf("RegisterLabel = %v, want ErrNoProps", err)
	}
	// Reads degrade gracefully: every edge default-labeled, no props.
	if _, err := s.Ingest([]graph.Edge{{Src: 1, Dst: 2}}); err != nil {
		t.Fatal(err)
	}
	got := typedOut(t, s, 1, prop.Filter{})
	if len(got) != 1 || got[2] != 0 {
		t.Fatalf("propless typed visit = %v, want {2:0}", got)
	}
}

// TestPropFlushWritesNoBlockAcrossSockets: the column log is interleaved
// over the sockets, and on a store whose archive threads are bound each
// block is written and flushed from the node that holds it (prop.BindFlush):
// no remote access, one line write and one write-back a block, and a DRAM
// line handed over wherever the log crosses into the other socket's stripe.
// Without binding the one flush thread sits on a socket and pays the remote
// price for the other's stripes.
func TestPropFlushWritesNoBlockAcrossSockets(t *testing.T) {
	const blocks = 100 // 6.25 stripes of 16 blocks
	sets := make([]graph.PropSet, blocks*prop.RecordsPerBlock)
	for i := range sets {
		sets[i] = graph.PropSet{V: graph.VID(i % 64), Key: 1, Val: int64(i)}
	}
	flush := func(numa NUMAMode) (ns int64, st xpsim.Stats) {
		s := newStore(t, Options{Name: "pflush", NumVertices: 64, NUMA: numa, Props: true})
		if err := s.SetProps(sets); err != nil {
			t.Fatal(err)
		}
		s.machine.ResetStats()
		ns, err := s.flushProps(0)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.props.Blocks(); got != blocks {
			t.Fatalf("%d column blocks, want %d", got, blocks)
		}
		return ns, s.machine.TotalStats()
	}

	lat := xpsim.DefaultLatency()
	ns, st := flush(NUMASubgraph)
	if st.RemoteAccesses != 0 {
		t.Errorf("bound store: %d of %d column-log accesses crossed sockets", st.RemoteAccesses, st.RemoteAccesses+st.LocalAccesses)
	}
	handover := lat.DRAMWrite + lat.DRAMRead
	if lo, hi := int64(blocks)*2*lat.LineWrite+6*handover, int64(blocks)*2*lat.LineWrite+8*handover; ns < lo || ns > hi {
		t.Errorf("bound store: flush takes %d ns, want %d..%d (%d blocks, 6-8 handovers)", ns, lo, hi, blocks)
	}
	unboundNs, st := flush(NUMANone)
	if st.RemoteAccesses == 0 || unboundNs <= ns {
		t.Errorf("unbound store: %d remote accesses, %d ns (bound: %d ns)", st.RemoteAccesses, unboundNs, ns)
	}
}
