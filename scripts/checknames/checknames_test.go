// Package checknames holds the named test runs of scripts/check.sh and the
// two workflows to the tests that exist, ci.yml to check.sh's sections, and
// the nightly's repeats to the sections they repeat. A -run pattern whose
// alternative names no test of the packages its line runs selects nothing
// for that alternative, a -fuzz pattern that matches no fuzz target fuzzes
// nothing, and go test reports no failure for either; a section that no
// ci.yml step names never runs in CI; and a test added to a section that
// the nightly repeats under its own -run list never reaches the repeat.
package checknames

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// root is the repository root, seen from this package's directory.
const root = "../.."

// files are the files whose go test lines the checks read.
var files = []string{"scripts/check.sh", ".github/workflows/ci.yml", ".github/workflows/nightly.yml"}

// TestRunPatternsNameTests: every alternative of every -run pattern in the
// files matches a test, example or fuzz target of a package its go test line
// names, and every -fuzz pattern exactly one fuzz target of them. Like go
// test, an alternative is a regular expression matched unanchored against
// the top-level name (the part of the pattern before its first top-level
// '/'). ci.yml runs named tests only through check.sh's sections.
func TestRunPatternsNameTests(t *testing.T) {
	names := map[string][]string{} // package directory -> its test names
	patterns := 0
	for _, file := range files {
		for _, c := range commands(t, file) {
			flags, pkgs := goTest(c.text)
			run, fuzz := flags["run"], flags["fuzz"]
			if run == "" && fuzz == "" {
				continue
			}
			if len(pkgs) == 0 {
				t.Errorf("%s:%d: go test names no package directory", file, c.line)
			}
			var have []string
			for _, pkg := range pkgs {
				if names[pkg] == nil {
					names[pkg] = testNames(t, pkg)
				}
				have = append(have, names[pkg]...)
			}
			where := strings.Join(pkgs, " ")
			if fuzz != "" {
				if n := len(matching(t, fuzz, have, "Fuzz")); n != 1 {
					t.Errorf("%s:%d: -fuzz %q matches %d fuzz targets of %s, want 1", file, c.line, fuzz, n, where)
				}
			}
			if run == "" {
				continue
			}
			patterns++
			if file == ".github/workflows/ci.yml" {
				t.Errorf("%s:%d: -run %q: put the run in a section of scripts/check.sh", file, c.line, run)
			}
			level, _ := cut(run, '/')
			for alt := level; alt != ""; {
				var a string
				a, alt = cut(alt, '|')
				if len(matching(t, a, have, "")) == 0 {
					t.Errorf("%s:%d: -run alternative %q names no test of %s", file, c.line, a, where)
				}
			}
		}
	}
	if patterns < 20 {
		t.Errorf("found %d go test lines with a -run pattern, want the files' 20 or more", patterns)
	}
}

// TestCIRunsEverySectionOnce: the `bash scripts/check.sh <section>…` steps
// of ci.yml name sections that check.sh defines (functions at the start of
// a line), and together every one of them exactly once. A step with no
// section runs them all.
func TestCIRunsEverySectionOnce(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(root, "scripts/check.sh"))
	if err != nil {
		t.Fatal(err)
	}
	var sections []string
	runs := map[string]int{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*)\(\) \{$`).FindAllStringSubmatch(string(data), -1) {
		sections = append(sections, m[1])
		runs[m[1]] = 0
	}
	if len(sections) < 10 {
		t.Fatalf("scripts/check.sh defines %d sections, want 10 or more", len(sections))
	}
	for _, c := range commands(t, ".github/workflows/ci.yml") {
		fields := shellFields(c.text)
		at := slices.Index(fields, "scripts/check.sh")
		if at < 0 {
			continue
		}
		args := words(fields[at+1:])
		if len(args) == 0 {
			args = sections
		}
		for _, s := range args {
			if _, ok := runs[s]; !ok {
				t.Errorf(".github/workflows/ci.yml:%d: scripts/check.sh has no section %q", c.line, s)
			}
			runs[s]++
		}
	}
	for _, s := range sections {
		if runs[s] != 1 {
			t.Errorf("ci.yml runs section %q of scripts/check.sh %d times, want once", s, runs[s])
		}
	}
}

// nightlyRepeats are the sections of scripts/check.sh whose runs of a
// package the nightly workflow repeats under flags of its own, by the name
// of the nightly step that does. only, when set, narrows the section's
// tests to those it matches.
var nightlyRepeats = []struct {
	section, pkg, step, only string
}{
	{"scrub", "internal/crashtest", "scrub differential sweep", ""},
	{"chaos", "internal/soak", "chaos differential sweep (committed schedules)", ""},
	{"clock", "internal/soak", "soak determinism (-race -count=3)", "^TestDeterministicReport$"},
}

// TestNightlyRepeatsItsSections: every test that a repeated section's go
// test lines select on the package (top-level names, as -run's first level
// selects them) is selected by a go test line of the repeating nightly step
// on the same package.
func TestNightlyRepeatsItsSections(t *testing.T) {
	for _, r := range nightlyRepeats {
		names := testNames(t, r.pkg)
		var want []string
		for _, c := range section(t, r.section) {
			want = append(want, selected(t, c.text, r.pkg, names)...)
		}
		if r.only != "" {
			want = matching(t, r.only, want, "")
		}
		if len(want) == 0 {
			t.Errorf("section %q selects no test of %s", r.section, r.pkg)
		}
		var have []string
		for _, c := range step(t, r.step) {
			have = append(have, selected(t, c.text, r.pkg, names)...)
		}
		for _, name := range want {
			if !slices.Contains(have, name) {
				t.Errorf("scripts/check.sh section %q runs %s of ./%s, which the nightly step %q does not repeat", r.section, name, r.pkg, r.step)
			}
		}
	}
}

// section is the commands of a check.sh section: the lines of its function.
func section(t *testing.T, name string) []command {
	t.Helper()
	var out []command
	in := false
	for _, c := range commands(t, "scripts/check.sh") {
		switch {
		case strings.TrimSpace(c.text) == name+"() {":
			in = true
		case in && strings.TrimSpace(c.text) == "}":
			return out
		case in:
			out = append(out, c)
		}
	}
	t.Fatalf("scripts/check.sh has no section %q", name)
	return nil
}

// step is the commands of a nightly.yml step, from its name on.
func step(t *testing.T, name string) []command {
	t.Helper()
	var out []command
	in := false
	for _, c := range commands(t, ".github/workflows/nightly.yml") {
		if n, ok := strings.CutPrefix(strings.TrimSpace(c.text), "- name: "); ok {
			if in {
				return out
			}
			in = n == name
			continue
		}
		if in {
			out = append(out, c)
		}
	}
	if !in {
		t.Fatalf(".github/workflows/nightly.yml has no step %q", name)
	}
	return out
}

// selected lists the tests of names (pkg's) that a go test command runs on
// pkg: those its -run pattern's first level matches, or all of them when it
// has none. Other commands, and go test lines of other packages, select
// nothing.
func selected(t *testing.T, line, pkg string, names []string) []string {
	t.Helper()
	flags, pkgs := goTest(line)
	if !slices.Contains(pkgs, pkg) {
		return nil
	}
	level, _ := cut(flags["run"], '/')
	if level == "" {
		return matching(t, "", names, "Test")
	}
	var out []string
	for alt := level; alt != ""; {
		var a string
		a, alt = cut(alt, '|')
		out = append(out, matching(t, a, names, "Test")...)
	}
	return out
}

// command is one shell command of a file: its lines joined at trailing
// backslashes, and the number of its first line.
type command struct {
	line int
	text string
}

func commands(t *testing.T, file string) []command {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, file))
	if err != nil {
		t.Fatal(err)
	}
	var out []command
	joining := false
	for i, line := range strings.Split(string(data), "\n") {
		if !joining {
			out = append(out, command{line: i + 1})
		}
		var text string
		text, joining = strings.CutSuffix(strings.TrimRight(line, " \t"), "\\")
		out[len(out)-1].text += text + " "
	}
	return out
}

// goTest parses a command that runs go test: its flags' values, unquoted
// (the checks read -run's and -fuzz's), and the package directories it
// names, relative to the repository root. Other commands give nil.
func goTest(line string) (flags map[string]string, pkgs []string) {
	fields := shellFields(line)
	at := -1
	for i := 0; i+1 < len(fields) && at < 0; i++ {
		if fields[i] == "go" && fields[i+1] == "test" {
			at = i + 2
		}
	}
	if at < 0 {
		return nil, nil
	}
	fields, flags = words(fields[at:]), map[string]string{}
	for i := 0; i < len(fields); i++ {
		f := fields[i]
		switch {
		case (f == "-run" || f == "-fuzz") && i+1 < len(fields):
			flags[f[1:]] = fields[i+1]
			i++
		case strings.HasPrefix(f, "-"):
			k, v, _ := strings.Cut(f[1:], "=")
			flags[k] = v
		case strings.HasPrefix(f, "./"):
			pkgs = append(pkgs, filepath.Clean(f))
		}
	}
	return flags, pkgs
}

// words is fields up to the end of their command, the first shell operator.
func words(fields []string) []string {
	for i, f := range fields {
		if f == "&&" || f == "||" || f == "|" || f == ";" {
			return fields[:i]
		}
	}
	return fields
}

// shellFields splits a shell line into words, dropping quotes and stopping
// at a comment.
func shellFields(line string) []string {
	var out []string
	var word strings.Builder
	inWord := false
	var quote byte
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case quote != 0 && c == quote:
			quote = 0
		case quote != 0:
			word.WriteByte(c)
		case c == '\'' || c == '"':
			quote, inWord = c, true
		case c == '#' && !inWord:
			i = len(line)
		case c == ' ' || c == '\t':
			if inWord {
				out = append(out, word.String())
				word.Reset()
				inWord = false
			}
		default:
			word.WriteByte(c)
			inWord = true
		}
	}
	if inWord {
		out = append(out, word.String())
	}
	return out
}

// cut splits s at the first sep outside brackets and parentheses, as go
// test splits a -run pattern into levels and a level into alternatives.
func cut(s string, sep byte) (before, after string) {
	depth := 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\\':
			i++
		case c == '(' || c == '[':
			depth++
		case c == ')' || c == ']':
			depth--
		case c == sep && depth == 0:
			return s[:i], s[i+1:]
		}
	}
	return s, ""
}

// testNames lists the test, example and fuzz functions of the package in
// dir.
func testNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(root, dir))
	if err != nil {
		t.Fatalf("package %s: %v", dir, err)
	}
	names := []string{}
	fset := token.NewFileSet()
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(root, dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				for _, prefix := range []string{"Test", "Example", "Fuzz"} {
					if strings.HasPrefix(fn.Name.Name, prefix) {
						names = append(names, fn.Name.Name)
					}
				}
			}
		}
	}
	return names
}

// matching lists the names with the prefix that the regular expression
// expr matches.
func matching(t *testing.T, expr string, names []string, prefix string) []string {
	t.Helper()
	re, err := regexp.Compile(expr)
	if err != nil {
		t.Errorf("pattern %q: %v", expr, err)
		return nil
	}
	var out []string
	for _, n := range names {
		if strings.HasPrefix(n, prefix) && re.MatchString(n) {
			out = append(out, n)
		}
	}
	return out
}
