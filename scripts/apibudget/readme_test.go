package apibudget

import (
	"fmt"
	"go/doc"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReadmePackageMap holds README.md's internal/ tree to the internal/*
// directories: one entry per package, in directory order, each the first
// sentence of its package comment. On a mismatch it prints the tree to
// paste.
func TestReadmePackageMap(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, tree, ok := strings.Cut(string(readme), "\ninternal/\n")
	if !ok {
		t.Fatal("README.md has no internal/ tree")
	}
	tree, _, _ = strings.Cut(tree, "```")
	want := packageMap(t)
	if tree != want {
		t.Errorf("README.md's internal/ tree is not the package map; want:\ninternal/\n%s", want)
	}
}

// packageMap renders one entry per internal/ package: its directory and
// the first sentence of its package comment, wrapped under a 24-column
// indent.
func packageMap(t *testing.T) string {
	t.Helper()
	dirs, err := filepath.Glob(filepath.Join(root, "internal", "*"))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, dir := range dirs {
		name := filepath.Base(dir)
		text := packageDoc(t, dir)
		if text == "" {
			t.Errorf("internal/%s has no package comment", name)
			continue
		}
		synopsis := new(doc.Package).Synopsis(text)
		synopsis = strings.TrimPrefix(synopsis, "Package "+name+" ")
		indent := strings.Repeat(" ", 24)
		line, fresh := fmt.Sprintf("  %-22s", name+"/"), true
		for _, word := range strings.Fields(synopsis) {
			switch {
			case fresh:
				line, fresh = line+word, false
			case len(line)+1+len(word) > 88:
				b.WriteString(line + "\n")
				line = indent + word
			default:
				line += " " + word
			}
		}
		b.WriteString(line + "\n")
	}
	return b.String()
}

// packageDoc returns the package comment of the package in dir, read from
// whichever of its files carries it (test files too: a test-only package
// documents itself in one).
func packageDoc(t *testing.T, dir string) string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		if f.Doc != nil && strings.HasPrefix(f.Doc.Text(), "Package ") {
			return f.Doc.Text()
		}
	}
	return ""
}
