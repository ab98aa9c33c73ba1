// Package checknames holds the named test runs of scripts/check.sh and
// .github/workflows/ci.yml to the tests that exist: a -run pattern whose
// alternative names no test of the packages its line runs selects nothing
// for that alternative, and go test reports no failure for it.
package checknames

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// root is the repository root, seen from this package's directory.
const root = "../.."

// TestRunPatternsNameTests: every alternative of every -run pattern in
// check.sh and ci.yml matches a test, example or fuzz target of a package
// its go test line names. Like go test, an alternative is a regular
// expression matched unanchored against the top-level name (the part of the
// pattern before its first top-level '/').
func TestRunPatternsNameTests(t *testing.T) {
	names := map[string][]string{} // package directory -> its test names
	patterns := 0
	for _, file := range []string{"scripts/check.sh", ".github/workflows/ci.yml"} {
		data, err := os.ReadFile(filepath.Join(root, file))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			pattern, pkgs, ok := runLine(line)
			if !ok {
				continue
			}
			patterns++
			if len(pkgs) == 0 {
				t.Errorf("%s:%d: -run %q names no package directory", file, i+1, pattern)
			}
			var have []string
			for _, pkg := range pkgs {
				if names[pkg] == nil {
					names[pkg] = testNames(t, pkg)
				}
				have = append(have, names[pkg]...)
			}
			level, _ := cut(pattern, '/')
			for alt := level; alt != ""; {
				var a string
				a, alt = cut(alt, '|')
				re, err := regexp.Compile(a)
				if err != nil {
					t.Errorf("%s:%d: -run alternative %q: %v", file, i+1, a, err)
					continue
				}
				if !matchesAny(re, have) {
					t.Errorf("%s:%d: -run alternative %q names no test of %s", file, i+1, a, strings.Join(pkgs, " "))
				}
			}
		}
	}
	if patterns < 20 {
		t.Errorf("found %d go test lines with a -run pattern, want the files' 20 or more", patterns)
	}
}

// runLine parses a line that runs go test with a -run pattern: the
// pattern, unquoted, and the package directories it names, relative to the
// repository root.
func runLine(line string) (pattern string, pkgs []string, ok bool) {
	fields := shellFields(line)
	at := -1
	for i := 0; i+1 < len(fields) && at < 0; i++ {
		if fields[i] == "go" && fields[i+1] == "test" {
			at = i + 2
		}
	}
	if at < 0 {
		return "", nil, false
	}
	for i := at; i < len(fields); i++ {
		f := fields[i]
		switch {
		case f == "&&" || f == "|" || f == ";" || f == "||":
			i = len(fields)
		case f == "-run" && i+1 < len(fields):
			pattern, ok = fields[i+1], true
			i++
		case strings.HasPrefix(f, "-run="):
			pattern, ok = strings.TrimPrefix(f, "-run="), true
		case strings.HasPrefix(f, "./"):
			pkgs = append(pkgs, filepath.Clean(f))
		}
	}
	return pattern, pkgs, ok
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

func matchesAny(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}
