package apibudget

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixture is a two-package module the budget runs on: internal/a declares one
// identifier of each kind the checker tells apart, and cmd/c calls it.
var fixture = map[string]string{
	"go.mod": "module repro\n\ngo 1.24\n",
	"internal/a/a.go": `// Package a is the budget's fixture.
package a

// Used is called by the command.
func Used() Keys { return Keys{2, 1} }

// Keys reaches the command through Used's signature, and its methods are
// reached only through sort.Interface.
type Keys []int

func (k Keys) Len() int           { return len(k) }
func (k Keys) Less(i, j int) bool { return k[i] < k[j] }
func (k Keys) Swap(i, j int)      { k[i], k[j] = k[j], k[i] }

// Hook is called only by the command's tests.
func Hook() {}
`,
	"cmd/c/main.go": `package main

import (
	"sort"

	"repro/internal/a"
)

func main() { sort.Sort(a.Used()) }
`,
	"cmd/c/main_test.go": `package main

import (
	"testing"

	"repro/internal/a"
)

func TestHook(t *testing.T) { a.Hook() }
`,
	"allow.txt": "# the fixture's allowlist\na.Hook test-hook: TestHook\n",
}

// TestBudgetCatchesMutants runs the budget on the fixture as it is, where it
// must find nothing, and on one mutant of it per rule, where it must fail and
// name the identifier.
func TestBudgetCatchesMutants(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(files map[string]string)
		want   string // a problem line holds it; "" for none at all
	}{
		{"clean", func(map[string]string) {}, ""},
		{"uncalled", func(f map[string]string) {
			f["internal/a/a.go"] += "\nfunc Dead() {}\n"
		}, "a.Dead: no non-test caller"},
		{"own-use-only", func(f map[string]string) {
			f["internal/a/a.go"] += "\nfunc Inner() {}\n\nfunc outer() { Inner() }\n"
		}, "a.Inner: used only inside its package"},
		{"reasonless-line", func(f map[string]string) {
			f["allow.txt"] = "a.Hook\n"
		}, "a.Hook: no reason"},
		{"deleted-identifier", func(f map[string]string) {
			f["allow.txt"] += "a.Gone test-hook: TestHook\n"
		}, "a.Gone: stale, no such exported identifier"},
		{"now-called", func(f map[string]string) {
			f["cmd/c/main.go"] = strings.Replace(f["cmd/c/main.go"], "{ sort.Sort", "{ a.Hook(); sort.Sort", 1)
		}, "a.Hook: stale, a non-test file of another package uses it"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			files := map[string]string{}
			for name, src := range fixture {
				files[name] = src
			}
			tc.mutate(files)
			dir := t.TempDir()
			for name, src := range files {
				path := filepath.Join(dir, name)
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			problems, _, _ := load(t, dir).audit(t, dir, files["allow.txt"])
			if tc.want == "" {
				for _, p := range problems {
					t.Errorf("the unmutated fixture failed: %s", p)
				}
				return
			}
			for _, p := range problems {
				if strings.Contains(p, tc.want) {
					return
				}
			}
			t.Errorf("no problem names %q; got %q", tc.want, problems)
		})
	}
}
