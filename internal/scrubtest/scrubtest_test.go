package scrubtest

import (
	"flag"
	"testing"

	"repro/internal/splitmix"
	"repro/internal/xpsim"
)

// TestUEDetection: after UE injection, every checked read matches the
// oracle or fails typed — never silently wrong edges.
func TestUEDetection(t *testing.T) {
	if err := RunUEDetection(Config{Name: "ue-detect", Seed: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestUEDetectionDeletes runs the detection differential over a
// workload with deletions, so damaged chains carry tombstones too.
func TestUEDetectionDeletes(t *testing.T) {
	if err := RunUEDetection(Config{Name: "ue-del", Seed: 2, DelRatio: 0.2}); err != nil {
		t.Fatal(err)
	}
}

// TestScrubRepairFromLog rebuilds damaged chains from the resident
// edge-log window: the whole workload fits in LogCapacity.
func TestScrubRepairFromLog(t *testing.T) {
	if err := RunScrubRepair(Config{Name: "repair-log", Seed: 3, Edges: 600, LogCapacity: 1 << 10}); err != nil {
		t.Fatal(err)
	}
}

// TestScrubRepairFromArchive rebuilds from the SSD edge archive even
// though the log window has rotated past the early records.
func TestScrubRepairFromArchive(t *testing.T) {
	if err := RunScrubRepair(Config{
		Name: "repair-ssd", Seed: 4, Edges: 1500,
		LogCapacity: 1 << 8, ArchiveSSDBytes: 4 << 20,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestUnrecoverable: no archive and a rotated log window leave a damaged
// early vertex with no rebuild source; the scrub must say so honestly.
func TestUnrecoverable(t *testing.T) {
	if err := RunUnrecoverable(Config{
		Name: "unrec", Seed: 5, Edges: 1500, LogCapacity: 1 << 8,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestNodeFailure: whole-device failure serves healthy partitions and
// refuses the rest, then recovers on revival.
func TestNodeFailure(t *testing.T) {
	if err := RunNodeFailure(Config{Name: "nodefail", Seed: 6, Edges: 800}); err != nil {
		t.Fatal(err)
	}
}

// TestQuarantinePersistence: quarantined spans survive crash + recovery
// with the archive re-attached, and a fresh scrub finds nothing new.
func TestQuarantinePersistence(t *testing.T) {
	if err := RunQuarantinePersistence(Config{
		Name: "quar-persist", Seed: 7, Edges: 900, ArchiveSSDBytes: 4 << 20,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestUEDetectionVarint runs the detection differential over delta-varint
// chains, where one torn line can scramble a variable number of records.
func TestUEDetectionVarint(t *testing.T) {
	if err := RunUEDetection(Config{Name: "ue-vz", Seed: 8, DelRatio: 0.2, Varint: true}); err != nil {
		t.Fatal(err)
	}
}

// TestScrubRepairVarint rebuilds damaged varint chains from the resident
// edge-log window.
func TestScrubRepairVarint(t *testing.T) {
	if err := RunScrubRepair(Config{
		Name: "repair-vz", Seed: 9, Edges: 600, LogCapacity: 1 << 10, Varint: true,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestScrubRepairVarintFromArchive rebuilds varint chains from the SSD
// archive after the log window rotated.
func TestScrubRepairVarintFromArchive(t *testing.T) {
	if err := RunScrubRepair(Config{
		Name: "repair-vz-ssd", Seed: 10, Edges: 1500,
		LogCapacity: 1 << 8, ArchiveSSDBytes: 4 << 20, Varint: true,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestQuarantinePersistenceVarint: quarantine survives crash + recovery
// when the repaired chains carry the varint encoding.
func TestQuarantinePersistenceVarint(t *testing.T) {
	if err := RunQuarantinePersistence(Config{
		Name: "quar-vz", Seed: 11, Edges: 900, ArchiveSSDBytes: 4 << 20, Varint: true,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestMixedFormatScrub: fixed chains grow varint tails after a recovery
// flips the encoding on, then UE damage and scrub repair must handle the
// mixed chains oracle-exactly.
func TestMixedFormatScrub(t *testing.T) {
	if err := RunMixedFormatScrub(Config{Name: "mix-scrub", Seed: 12, Edges: 600}, 300); err != nil {
		t.Fatal(err)
	}
}

// -scrubtest.tearseeds widens the crash × scrub sweep to several tear
// geometries per kill point (the nightly runs 4).
var tearSeedsFlag = flag.Int("scrubtest.tearseeds", 1, "tear seeds per kill point in the crash × scrub sweep")

// TestScrubCrashSweep kills the machine at every media write inside the
// scrub that repairs a UE-damaged hub vertex — fixed-width and varint
// stores, dropped, prefix-torn and word-torn lines — and recovers: every
// read is exact or fails typed, the persisted quarantine survives, and a
// further scrub completes the repair. Exhaustive outside -short. Every
// failing (store, tear mode, kill point, tear seed) is reported before the
// test fails, so one run names the whole set.
func TestScrubCrashSweep(t *testing.T) {
	for _, varint := range []bool{false, true} {
		cfg := Config{Name: "scrub-crash", Seed: 21, Edges: 3000, LogCapacity: 1 << 12, Varint: varint}
		probe, err := CrashInScrub(cfg, xpsim.FaultPlan{})
		if err != nil {
			t.Fatalf("varint=%v: probe: %v", varint, err)
		}
		if err := probe.Verify(); err != nil {
			t.Fatalf("varint=%v: uncrashed run: %v", varint, err)
		}
		m := probe.MediaWrites
		if m < 8 {
			t.Fatalf("varint=%v: the repairing scrub issued only %d media writes", varint, m)
		}
		stride := int64(1)
		if testing.Short() {
			stride = m / 6
		}
		t.Logf("varint=%v: kills at %d of %d media writes × 3 tear modes × %d tear seeds", varint, (m-1)/stride+1, m, *tearSeedsFlag)
		for _, tear := range []xpsim.TearMode{xpsim.TearNone, xpsim.TearPrefix, xpsim.TearWords} {
			for n := int64(1); n <= m; n += stride {
				for k := 0; k < *tearSeedsFlag; k++ {
					seed := splitmix.Mix(uint64(n)*0x5C4B + uint64(k))
					c, err := CrashInScrub(cfg, xpsim.FaultPlan{KillAtMediaWrite: n, Tear: tear, Seed: seed})
					if err == nil {
						err = c.Verify()
					}
					if err != nil {
						t.Errorf("varint=%v tear=%s kill n=%d/%d tear seed=%#x: %v", varint, tear, n, m, seed, err)
					}
				}
			}
		}
	}
}

// TestHeaderUECrash: a crash while block headers sit on uncorrectable
// lines must not recover as a silently truncated arena.
func TestHeaderUECrash(t *testing.T) {
	for _, varint := range []bool{false, true} {
		if err := RunHeaderUECrash(Config{Name: "hdr-ue", Seed: 22, Edges: 800, Varint: varint}); err != nil {
			t.Fatalf("varint=%v: %v", varint, err)
		}
	}
}
