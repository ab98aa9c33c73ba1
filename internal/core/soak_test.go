package core

import (
	"math/rand"
	"testing"

	"repro/internal/difftest"
	"repro/internal/graph"
	"repro/internal/xpsim"
)

// TestSoak interleaves every store operation — batch ingest, deletions,
// flush-all, per-vertex compaction, snapshots, verification, and
// crash+recovery — against a reference model, for several seeds. This is
// the cross-feature interaction test: each operation is individually
// covered elsewhere; here they collide.
func TestSoak(t *testing.T) {
	const numV = 96
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(string(rune('a'+seed)), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			m, h := testMachine()
			opts := Options{Name: "soak", NumVertices: numV,
				LogCapacity: 1 << 11, ArchiveThreshold: 1 << 6, ArchiveThreads: 3,
				NUMA: NUMAMode(rng.Intn(3))}
			s, err := New(m, h, nil, opts)
			if err != nil {
				t.Fatal(err)
			}

			ref := difftest.New()
			ctx := xpsim.NewCtx(0)
			nextEdge := uint32(0) // unique (src,dst) pairs so recovery dedup is exact

			type pendingSnap struct {
				snap *Snapshot
				ref  *difftest.Model
			}
			var snaps []pendingSnap

			for op := 0; op < 60; op++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3, 4: // ingest a batch of fresh edges (+ some deletions)
					n := 1 + rng.Intn(400)
					batch := make([]graph.Edge, 0, n)
					for i := 0; i < n; i++ {
						if rng.Intn(8) == 0 {
							// Delete a live edge of a random vertex that has one.
							for v := graph.VID(rng.Intn(numV)); v < numV; v++ {
								if outs := ref.NbrsOut(ctx, v, nil); len(outs) > 0 {
									batch = append(batch, graph.Del(v, outs[rng.Intn(len(outs))]))
									break
								}
							}
							continue
						}
						// Unique edge: encode a counter into (src, dst).
						src := graph.VID(nextEdge % numV)
						dst := (nextEdge / numV) % (1 << 24)
						nextEdge++
						batch = append(batch, graph.Edge{Src: src, Dst: dst})
					}
					if _, err := s.Ingest(batch); err != nil {
						t.Fatalf("op %d ingest: %v", op, err)
					}
					ref.Ingest(batch)
				case 5: // flush everything to PMEM
					if err := s.FlushAllVbufs(); err != nil {
						t.Fatalf("op %d flush: %v", op, err)
					}
				case 6: // compact a random vertex (snapshots must survive)
					if err := s.CompactAdjs(ctx, graph.VID(rng.Intn(numV))); err != nil {
						t.Fatalf("op %d compact: %v", op, err)
					}
				case 7: // take a snapshot of the current out-view
					snaps = append(snaps, pendingSnap{s.Snapshot(ctx), ref.Clone()})
				case 8: // verify structural invariants
					if _, err := s.Verify(ctx); err != nil {
						t.Fatalf("op %d verify: %v", op, err)
					}
				case 9: // crash and recover
					s = nil
					rs, _, err := Recover(m, h, nil, opts)
					if err != nil {
						t.Fatalf("op %d recover: %v", op, err)
					}
					s = rs
					snaps = nil // snapshots do not survive the crash (DRAM)
				}

				// Spot-check a few random vertices against the model.
				for i := 0; i < 4; i++ {
					v := graph.VID(rng.Intn(numV))
					for d := Out; d <= In; d++ {
						if got, want := s.Nbrs(ctx, d, v, nil), ref.Nbrs(ctx, d, v, nil); !difftest.SameMultiset(got, want) {
							t.Fatalf("op %d: %v(%d) = %v, want %v", op, d, v, got, want)
						}
					}
				}
				// Check every live snapshot still reports its frozen view —
				// including across flushes and compactions.
				for si, ps := range snaps {
					v := graph.VID(rng.Intn(numV))
					if got, want := ps.snap.NbrsOut(ctx, v, nil), ps.ref.NbrsOut(ctx, v, nil); !difftest.SameMultiset(got, want) {
						t.Fatalf("op %d snapshot %d: out(%d) = %v, drifted from %v", op, si, v, got, want)
					}
				}
			}

			// Final full sweep.
			checkModel(t, s, ref)
			if _, err := s.Verify(ctx); err != nil {
				t.Fatalf("final verify: %v", err)
			}
		})
	}
}
