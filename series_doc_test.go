package privapprox

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestEverySeriesHasARow: the series the product can emit — every
// "privapprox_…" string literal in a non-test Go file under internal/ or
// cmd/ — are exactly the series column of DESIGN.md's metric table. A
// name without a row is a signal nobody documented a reader for; a row
// without a name documents a series that no longer exists.
func TestEverySeriesHasARow(t *testing.T) {
	emitted := map[string]string{} // series → a file that names it
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if s, err := strconv.Unquote(lit.Value); err == nil && strings.HasPrefix(s, "privapprox_") {
						emitted[s] = path
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(emitted) == 0 {
		t.Fatal("no privapprox_ series found under internal/ and cmd/")
	}

	rows := metricTableRows(t)
	for name, path := range emitted {
		if !slices.Contains(rows, name) {
			t.Errorf("%s (named in %s) has no row in DESIGN.md's metric table", name, path)
		}
	}
	seen := map[string]bool{}
	for _, name := range rows {
		if seen[name] {
			t.Errorf("%s has two rows in DESIGN.md's metric table", name)
		}
		seen[name] = true
		if _, ok := emitted[name]; !ok {
			t.Errorf("DESIGN.md's metric table has a row for %s, which no product code emits", name)
		}
	}
}

// metricTableRows returns the series column of the table under DESIGN.md's
// "### Metric reference" heading, each name without its backquotes.
func metricTableRows(t *testing.T) []string {
	t.Helper()
	f, err := os.Open("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows []string
	in, table := false, false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "### Metric reference"):
			in = true
		case !in:
		case strings.HasPrefix(line, "|"):
			table = true
			cell := strings.Trim(strings.Split(line, "|")[1], " `")
			if strings.HasPrefix(cell, "privapprox_") {
				rows = append(rows, cell)
			}
		case table:
			return rows // the first line after the table ends it
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal(`DESIGN.md has no "### Metric reference" table`)
	}
	return rows
}
