package soak

import "path/filepath"

// DumpFiles lists the artifact paths a failing run writes into dir.
func (sc Scenario) DumpFiles(dir string) []string {
	base := filepath.Join(dir, sc.withDefaults().dumpBase())
	return []string{base + ".report.json", base + ".trace.json", base + ".metrics.prom"}
}
