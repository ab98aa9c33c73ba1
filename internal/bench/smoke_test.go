package bench

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestAllExperimentsSmoke runs every registered experiment at a tiny scale
// so each code path (including the extension experiments and error
// handling) executes in CI. Shape assertions live in the dedicated tests;
// this one demands a rendering and a sound row derivation: every measured
// cell and every extra row is one row, no two rows share a name, and the
// report survives the file form benchgate reads.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke sweep skipped in -short mode")
	}
	cfg := Config{EdgeScale: 0.01, ArchiveThreads: 8, QueryThreads: 8,
		Datasets: []string{"TT"}}
	for _, e := range Experiments() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			dss := cfg
			switch e.Name {
			case "fig16", "fig17":
				dss.Datasets = []string{"YW"}
			}
			tb, err := e.Run(dss.withDefaults())
			if err != nil {
				t.Fatal(err)
			}
			if len(tb.Rows) == 0 {
				t.Fatal("no rows")
			}
			if tb.String() == "" {
				t.Fatal("empty rendering")
			}

			rows := tb.Report()
			measured := len(tb.Extra)
			for _, cells := range tb.Rows {
				for _, c := range cells {
					if c.Unit != "" {
						measured++
					}
				}
			}
			if len(rows) != measured || measured == 0 {
				t.Fatalf("%d rows from %d measured cells and extra rows", len(rows), measured)
			}
			seen := map[string]bool{}
			for _, r := range rows {
				if seen[r.id()] {
					t.Errorf("two rows are named %s", r.id())
				}
				seen[r.id()] = true
			}
			path := filepath.Join(t.TempDir(), "rows.json")
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := WriteRows(f, rows); err != nil {
				t.Fatal(err)
			}
			f.Close()
			back, err := ReadRows(path)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, rows) {
				t.Errorf("report changed through its file form:\nwrote %+v\nread  %+v", rows, back)
			}
		})
	}
}
