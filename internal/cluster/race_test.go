//go:build race

package cluster

// raceEnabled reports a race-detector build, under which sync.Pool drops a
// random share of what is put back, so allocation budgets do not hold.
const raceEnabled = true
