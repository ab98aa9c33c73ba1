package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// The two directions a row can be better in.
const (
	Higher = "higher"
	Lower  = "lower"
)

// Row is one measured number in the one schema every report, gate and
// trajectory file (BENCH_<pr>.json, a row a line) uses; the field names are
// BENCHMARK.json's.
type Row struct {
	Exp    string  `json:"exp"`
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	// Floor is the worst value the row may take whatever the baseline says:
	// a minimum when higher is better, a ceiling when lower is.
	Floor *float64 `json:"floor,omitempty"`
	// Bound is the fraction by which the row may be worse than the
	// same-named baseline row. A bounded row must also be positive: a
	// relative bound on a zero is no bound, and a lower-is-better row that
	// reads 0 has lost its measurement, not improved.
	Bound *float64 `json:"bound,omitempty"`
	// Band is the range the paper reports for a shape row and Deviation the
	// number of the EXPERIMENTS.md "Known deviations" entry that records
	// why the row lies outside it. Neither is a gate: a recorded deviation
	// is an expected failure, not a floor to tune toward.
	Band      *[2]float64 `json:"band,omitempty"`
	Deviation int         `json:"deviation,omitempty"`
}

// ID names the row across experiments.
func (r Row) ID() string { return r.Exp + "/" + r.Name }

// worse reports whether v is worse than ref in the row's direction.
func (r Row) worse(v, ref float64) bool {
	if r.Better == Lower {
		return v > ref
	}
	return v < ref
}

// declared renders where the row lies against the paper's band and what it
// declares, for the text line of an extra row (scripts/mkexperiments.py
// reads the placement and the deviation number of the shape lines).
func (r Row) declared() string {
	parts := []string{"ok"}
	if r.Band != nil {
		switch {
		case r.Value < r.Band[0]:
			parts[0] = "below"
		case r.Value > r.Band[1]:
			parts[0] = "above"
		}
		parts = append(parts, fmt.Sprintf("paper %.4g..%.4g", r.Band[0], r.Band[1]))
	}
	if r.Deviation != 0 {
		parts = append(parts, fmt.Sprintf("deviation %d", r.Deviation))
	}
	if r.Floor != nil {
		parts = append(parts, fmt.Sprintf("floor %g", *r.Floor))
	}
	if r.Bound != nil {
		parts = append(parts, fmt.Sprintf("bound %g", *r.Bound))
	}
	return strings.Join(parts, ", ")
}

// Gate is the one gate. It returns a line per failure, each naming its row:
// a row that is not a finite number in a known direction; a row on the wrong
// side of its floor; a bounded row that is not positive, that a non-empty
// baseline has no same-named row for, or that is worse than that row by more
// than its bound; and every baseline row of an experiment cur ran that cur
// no longer has. A run at another scale, whose row keys differ, therefore
// fails from both sides instead of comparing nothing.
func Gate(cur, baseline []Row) []string {
	var fails []string
	failf := func(r Row, format string, a ...any) {
		fails = append(fails, r.ID()+": "+fmt.Sprintf(format, a...))
	}
	base := map[string]Row{}
	for _, b := range baseline {
		base[b.ID()] = b
	}
	ran, have := map[string]bool{}, map[string]bool{}
	for _, r := range cur {
		ran[r.Exp], have[r.ID()] = true, true
		if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) || (r.Better != Higher && r.Better != Lower) {
			failf(r, "not a measurement (value %v, better %q)", r.Value, r.Better)
			continue
		}
		if r.Floor != nil && r.worse(r.Value, *r.Floor) {
			failf(r, "%g %s is on the wrong side of its floor %g (%s is better)", r.Value, r.Unit, *r.Floor, r.Better)
		}
		if r.Bound == nil {
			continue
		}
		if r.Value <= 0 {
			failf(r, "bounded row reads %g %s: the measurement is missing", r.Value, r.Unit)
		}
		if len(baseline) == 0 {
			continue
		}
		b, ok := base[r.ID()]
		if !ok {
			failf(r, "bounded row has no baseline row to be held against")
			continue
		}
		limit := b.Value * (1 - *r.Bound)
		if r.Better == Lower {
			limit = b.Value * (1 + *r.Bound)
		}
		if r.worse(r.Value, limit) {
			failf(r, "%g %s is worse than the baseline's %g by more than %g", r.Value, r.Unit, b.Value, *r.Bound)
		}
	}
	for _, b := range baseline {
		if ran[b.Exp] && !have[b.ID()] {
			failf(b, "baseline row is missing from the report")
		}
	}
	return fails
}

// WriteRows writes a report: one JSON row a line, so reports concatenate.
func WriteRows(w io.Writer, rows []Row) error {
	enc := json.NewEncoder(w)
	for _, r := range rows {
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("row %s: %w", r.ID(), err)
		}
	}
	return nil
}

// ReadRows loads a report WriteRows wrote. Anything else — another JSON
// document, a row with an unknown field or no name, an empty file — is an
// error: a file the gate cannot read must not pass it.
func ReadRows(path string) ([]Row, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var rows []Row
	for dec.More() {
		var r Row
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("%s: not a row report: %w", path, err)
		}
		if r.Exp == "" || r.Name == "" {
			return nil, fmt.Errorf("%s: not a row report: row %d has no exp or name", path, len(rows)+1)
		}
		rows = append(rows, r)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("%s: not a row report: no rows", path)
	}
	return rows, nil
}
