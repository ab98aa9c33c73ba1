package bench

import (
	"testing"

	"repro/internal/gen"
)

func TestAblationShape(t *testing.T) {
	tb, err := Run("ablation", quickCfg("FS"))
	if err != nil {
		t.Fatal(err)
	}
	var full, noBuf float64
	for i, r := range tb.Rows {
		switch r[1] {
		case "full":
			full = cellF(t, tb, i, "ingest_s")
		case "no-buffering":
			noBuf = cellF(t, tb, i, "ingest_s")
		}
	}
	if noBuf <= full {
		t.Errorf("disabling vertex buffering (%f) should cost more than full XPGraph (%f)", noBuf, full)
	}
}

func TestExtSSDShape(t *testing.T) {
	// Raw nanoseconds, not table cells: at this scale both runs round to the
	// same millisecond.
	ds, err := gen.ByName("FS")
	if err != nil {
		t.Fatal(err)
	}
	runs, err := extSSDRuns(ds, quickCfg("FS").withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	pm, tiered := runs[0], runs[1]
	if tiered.ingestNs <= pm.ingestNs {
		t.Errorf("tiered ingest (%d ns) should cost more than pure PMEM (%d ns)", tiered.ingestNs, pm.ingestNs)
	}
	if pm.ssdBytes != 0 || tiered.ssdBytes <= 0 {
		t.Errorf("SSD bytes: %d on ample PMEM, %d on small arenas; only the overflow run should place any", pm.ssdBytes, tiered.ssdBytes)
	}
}

func TestExtHotColdShape(t *testing.T) {
	tb, err := Run("ext-hotcold", quickCfg("FS"))
	if err != nil {
		t.Fatal(err)
	}
	hotRead := cellF(t, tb, 0, "pmem_read_GB")
	coldRead := cellF(t, tb, 1, "pmem_read_GB")
	if hotRead >= coldRead {
		t.Errorf("hot-buffer queries read %f GB from PMEM vs flushed %f GB; buffers should absorb reads", hotRead, coldRead)
	}
}

func TestExtEvolvingShape(t *testing.T) {
	tb, err := Run("ext-evolving", quickCfg("FS"))
	if err != nil {
		t.Fatal(err)
	}
	goP := cellF(t, tb, 0, "ingest_s")
	xp := cellF(t, tb, 1, "ingest_s")
	if xp >= goP {
		t.Errorf("XPGraph (%f) should beat GraphOne-P (%f) on evolving streams too", xp, goP)
	}
}
