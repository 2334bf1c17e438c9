//go:build ignore

// Unlinked lists the functions and methods of internal/ that no binary
// of the repository links. It builds every main package of the root
// module and of the bench/ and paper/ modules with inlining off
// (-gcflags=all=-l), so a function that is called appears in the symbol
// table even where the compiler would have inlined it, and reads the
// tables with `go tool nm`. It then parses the non-test Go files of
// every internal/ package of the root module and prints each declared
// function that appears in none of them, with its line count, and the
// totals.
//
// Run it from the repository root:
//
//	go run tools/unlinked.go
//
// A function listed here is reached only from tests (or not at all).
// The linker keeps a method that an interface could reach, so a method
// can be linked and still never run; the list is a lower bound on dead
// code, not the whole of it.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	tmp, err := os.MkdirTemp("", "unlinked")
	check(err)
	defer os.RemoveAll(tmp)

	linked := map[string]bool{}
	n := 0
	for _, mod := range []string{".", "bench", "paper"} {
		for _, pkg := range goList(mod, `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./...") {
			n++
			bin := filepath.Join(tmp, fmt.Sprintf("bin%d", n))
			run(mod, "go", "build", "-gcflags=all=-l", "-o", bin, pkg)
			for _, sym := range symbols(bin) {
				linked[sym] = true
			}
		}
	}

	type fn struct {
		pos   string
		name  string
		lines int
	}
	var dead []fn
	total := 0
	fset := token.NewFileSet()
	for _, line := range goList(".", `{{.ImportPath}} {{.Dir}} {{join .GoFiles " "}}`, "./internal/...") {
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		path, dir := fields[0], fields[1]
		for _, name := range fields[2:] {
			file := filepath.Join(dir, name)
			f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			check(err)
			for _, decl := range f.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok || d.Body == nil || (d.Recv == nil && d.Name.Name == "init") {
					continue
				}
				total++
				sym := path + "." + d.Name.Name
				if d.Recv != nil && len(d.Recv.List) > 0 {
					sym = path + "." + recvName(d.Recv.List[0].Type) + "." + d.Name.Name
				}
				if linked[sym] {
					continue
				}
				start, end := fset.Position(d.Pos()), fset.Position(d.End())
				rel, _ := filepath.Rel(mustWd(), start.Filename)
				dead = append(dead, fn{
					pos:   fmt.Sprintf("%s:%d", rel, start.Line),
					name:  strings.TrimPrefix(sym, "privapprox/"),
					lines: end.Line - start.Line + 1,
				})
			}
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].name < dead[j].name })
	lines := 0
	for _, d := range dead {
		lines += d.lines
		fmt.Printf("%5d  %-60s %s\n", d.lines, d.name, d.pos)
	}
	fmt.Printf("%d of %d functions in internal/ are linked by no binary (%d built), %d lines\n",
		len(dead), total, n, lines)
}

// symbols returns the text symbols of a binary, normalised to
// path.Func or path.Type.Method: pointer receivers lose their (*...)
// and generic instantiations their type arguments.
func symbols(bin string) []string {
	out := run(".", "go", "tool", "nm", bin)
	var syms []string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
			continue
		}
		syms = append(syms, normalise(strings.Join(f[2:], " ")))
	}
	return syms
}

func normalise(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth > 0, r == '(', r == ')', r == '*':
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// recvName is a receiver's base type name: T for T, *T, T[K] and *T[K].
func recvName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return fmt.Sprintf("%T", e)
		}
	}
}

func goList(dir, format, pattern string) []string {
	var pkgs []string
	for _, l := range strings.Split(string(run(dir, "go", "list", "-f", format, pattern)), "\n") {
		if l = strings.TrimSpace(l); l != "" {
			pkgs = append(pkgs, l)
		}
	}
	return pkgs
}

func run(dir, name string, args ...string) []byte {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s %s: %v\n", name, strings.Join(args, " "), err)
		os.Exit(1)
	}
	return out
}

func mustWd() string {
	wd, err := os.Getwd()
	check(err)
	return wd
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
