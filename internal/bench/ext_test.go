package bench

import "testing"

func TestAblationShape(t *testing.T) {
	tb, err := Run("ablation", quickCfg("FS"))
	if err != nil {
		t.Fatal(err)
	}
	full, noBuf := val(t, tb, "full/ingest_s"), val(t, tb, "no-buffering/ingest_s")
	if noBuf <= full {
		t.Errorf("disabling vertex buffering (%f) should cost more than full XPGraph (%f)", noBuf, full)
	}
}

func TestExtSSDShape(t *testing.T) {
	// A row carries the nanoseconds, not the cell text: at this scale both
	// runs print as the same millisecond.
	tb, err := Run("ext-ssd", quickCfg("FS"))
	if err != nil {
		t.Fatal(err)
	}
	pm, tiered := val(t, tb, "pmem-only/ingest_s"), val(t, tb, "small-pmem+ssd/ingest_s")
	if tiered <= pm {
		t.Errorf("tiered ingest (%g s) should cost more than pure PMEM (%g s)", tiered, pm)
	}
	pmSSD, tieredSSD := val(t, tb, "pmem-only/ssd_MB"), val(t, tb, "small-pmem+ssd/ssd_MB")
	if pmSSD != 0 || tieredSSD <= 0 {
		t.Errorf("SSD MB: %g on ample PMEM, %g on small arenas; only the overflow run should place any", pmSSD, tieredSSD)
	}
}

func TestExtHotColdShape(t *testing.T) {
	tb, err := Run("ext-hotcold", quickCfg("FS"))
	if err != nil {
		t.Fatal(err)
	}
	hotRead := val(t, tb, "hot-buffers/pmem_read_GB")
	coldRead := val(t, tb, "flushed/pmem_read_GB")
	if hotRead >= coldRead {
		t.Errorf("hot-buffer queries read %f GB from PMEM vs flushed %f GB; buffers should absorb reads", hotRead, coldRead)
	}
}

func TestExtEvolvingShape(t *testing.T) {
	tb, err := Run("ext-evolving", quickCfg("FS"))
	if err != nil {
		t.Fatal(err)
	}
	goP, xp := val(t, tb, "GraphOne-P/ingest_s"), val(t, tb, "XPGraph/ingest_s")
	if xp >= goP {
		t.Errorf("XPGraph (%f) should beat GraphOne-P (%f) on evolving streams too", xp, goP)
	}
}
