package difftest

import (
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/splitmix"
	"repro/internal/xpsim"
)

var (
	// tearSeeds multiplies the tear seeds of every torn kill point (and the
	// schedules of a seeded sweep). The nightly runs 4.
	tearSeeds = flag.Int("difftest.tearseeds", 1, "tear seeds per torn kill point of every sweep")
	// exploreSeed salts every seed the kit derives — each torn kill
	// point's tear seeds and each seeded sweep's schedules — so that a
	// nightly run explores new ones; 0 is the committed set.
	exploreSeed = flag.Uint64("difftest.seed", 0, "salt of every derived tear seed and schedule (0: the committed ones)")
)

// FailureLog names the environment variable that, when set, is a file
// every failing case is appended to, as its replay line.
const FailureLog = "DIFFTEST_FAILURES"

// TearSeeds reports -difftest.tearseeds.
func TearSeeds() int { return *tearSeeds }

// Schedules is the n seeds of a seeded sweep, derived from base and
// -difftest.seed.
func Schedules(base uint64, n int) []uint64 {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = splitmix.Mix((base ^ *exploreSeed) + uint64(i))
	}
	return seeds
}

// Short is short under -short and full otherwise.
func Short[T any](full, short T) T {
	if testing.Short() {
		return short
	}
	return full
}

// Case is one kill of a sweep.
type Case struct {
	// Path names the case's subtest — "<sweep>/<tear>/n=<n>" with
	// "/seed=<seed>" for a torn line, "<sweep>/<site>/hit=<h>" — so that
	// -run selects it alone.
	Path string
	Plan xpsim.FaultPlan
}

// Sweep is the kill space of one probed workload: its media writes, each
// under every tear mode and tear seed, and its crash-site hits.
type Sweep struct {
	Name   string           // first element of every case's path
	Writes int64            // the probe's media-write count
	Sites  map[string]int64 // the probe's hits of the sites to kill at
	// Points strides the write kills to about that many (0: every write).
	// The final write is always a kill point.
	Points int64
	Tears  []xpsim.TearMode // nil: word tears only
	// Seeds is the tear seeds per torn kill point (0: 1), derived from the
	// sweep's name, -difftest.seed and the kill point. Run multiplies it by
	// -difftest.tearseeds.
	Seeds int
}

// Cases lists the kills of s: the strided write kills under each tear mode
// (one per point for TearNone, which has no geometry to seed), then every
// hit of every site — the first and the last under -short.
func (s Sweep) Cases() []Case {
	tears := s.Tears
	if tears == nil {
		tears = []xpsim.TearMode{xpsim.TearWords}
	}
	h := fnv.New64a()
	h.Write([]byte(s.Name))
	if *exploreSeed != 0 {
		fmt.Fprintf(h, "/%d", *exploreSeed)
	}
	salt := h.Sum64()
	var cs []Case
	for _, n := range s.points() {
		for _, tear := range tears {
			path := fmt.Sprintf("%s/%s/n=%d", s.Name, tear, n)
			if tear == xpsim.TearNone {
				cs = append(cs, Case{path, xpsim.FaultPlan{KillAtMediaWrite: n}})
				continue
			}
			for k := 0; k < max(1, s.Seeds); k++ {
				seed := splitmix.Mix(salt ^ uint64(n)<<20 ^ uint64(k))
				cs = append(cs, Case{fmt.Sprintf("%s/seed=%#x", path, seed), xpsim.FaultPlan{KillAtMediaWrite: n, Tear: tear, Seed: seed}})
			}
		}
	}
	for _, site := range slices.Sorted(maps.Keys(s.Sites)) {
		total := s.Sites[site]
		for hit := int64(1); hit <= total; hit++ {
			if testing.Short() && hit > 1 && hit < total {
				continue
			}
			cs = append(cs, Case{fmt.Sprintf("%s/%s/hit=%d", s.Name, site, hit), xpsim.FaultPlan{KillAtSite: site, KillAtSiteHit: hit}})
		}
	}
	return cs
}

func (s Sweep) points() []int64 {
	stride := int64(1)
	if s.Points > 0 {
		stride = max(1, s.Writes/s.Points)
	}
	var ns []int64
	for n := int64(1); n <= s.Writes; n += stride {
		ns = append(ns, n)
	}
	if len(ns) > 0 && ns[len(ns)-1] != s.Writes {
		ns = append(ns, s.Writes)
	}
	return ns
}

// Run kills through kill at every case of s, each its own subtest, with
// -difftest.tearseeds times s.Seeds tear seeds per torn point; a failing
// case fails its subtest (Fail) and the sweep goes on. It fails when s has
// no case at all and logs the sweep's line: "<name>: k kills of m writes ×
// tears × seeds, j site kills".
func (s Sweep) Run(t *testing.T, kill func(Case) error) {
	t.Helper()
	s.Seeds = max(1, s.Seeds) * *tearSeeds
	cases := s.Cases()
	if len(cases) == 0 {
		t.Fatalf("%s: the workload reached no kill point", s.Name)
	}
	points, sites := map[int64]bool{}, 0
	for _, c := range cases {
		t.Run(c.Path, func(t *testing.T) {
			if c.Plan.KillAtSite != "" {
				sites++
			} else {
				points[c.Plan.KillAtMediaWrite] = true
			}
			if err := kill(c); err != nil {
				Fail(t, err)
			}
		})
	}
	t.Logf("%s: %d kills of %d writes × %d tears × %d seeds, %d site kills",
		s.Name, len(points), s.Writes, max(1, len(s.Tears)), s.Seeds, sites)
}

// Fail fails t with err in the kit's one line format, which is also the
// command that replays t alone:
//
//	go test ./<pkg>/ -run '^<Test>$/^<subtest>$/...' -difftest.tearseeds=<k> [-difftest.seed=<s>] [-short] [flags] # <err>
//
// and appends the line to $DIFFTEST_FAILURES when it is set; flags are any
// others the case depends on.
func Fail(t *testing.T, err error, flags ...string) {
	t.Helper()
	elems := strings.Split(t.Name(), "/")
	for i, e := range elems {
		elems[i] = "^" + regexp.QuoteMeta(e) + "$"
	}
	args := []string{"go test", pkgDir(), "-run", "'" + strings.Join(elems, "/") + "'", fmt.Sprintf("-difftest.tearseeds=%d", *tearSeeds)}
	if *exploreSeed != 0 {
		args = append(args, fmt.Sprintf("-difftest.seed=%d", *exploreSeed))
	}
	if testing.Short() {
		args = append(args, "-short")
	}
	line := strings.Join(append(args, flags...), " ") + " # " + strings.ReplaceAll(err.Error(), "\n", " ")
	t.Error(line)
	if name := os.Getenv(FailureLog); name != "" {
		f, ferr := os.OpenFile(name, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if ferr == nil {
			_, ferr = fmt.Fprintln(f, line)
			ferr = errors.Join(ferr, f.Close())
		}
		if ferr != nil {
			t.Errorf("%s: %v", FailureLog, ferr)
		}
	}
}

// pkgDir is the test's package directory relative to its module root,
// where go test runs a package's tests.
func pkgDir() string {
	wd, err := os.Getwd()
	if err != nil {
		return "."
	}
	for root := wd; filepath.Dir(root) != root; root = filepath.Dir(root) {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			rel, _ := filepath.Rel(root, wd) // wd lies below root
			return "./" + filepath.ToSlash(rel) + "/"
		}
	}
	return "."
}
