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
// It then prints the exported identifiers of internal/ that no Go file
// outside their package names, and their count: a top-level name that
// no other package's file (root, cmd/, examples/, tools/, bench/, paper/,
// and the tests of other packages included) selects through its import,
// and a method whose name no such file selects or any file declares in
// an interface. Names are matched, not resolved, so a method that shares
// its name with one used elsewhere counts as named: that list is a lower
// bound too.
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

	unnamed := exportedUnnamed()
	for _, name := range unnamed {
		fmt.Printf("       %s\n", name)
	}
	fmt.Printf("%d exported identifiers in internal/ are named by no file outside their package\n", len(unnamed))
}

// stdMethods are method names that satisfy an interface of the standard
// library, which no file of the repository declares.
var stdMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true, "Format": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalBinary": true, "UnmarshalBinary": true,
	"MarshalText": true, "UnmarshalText": true, "ServeHTTP": true,
	"Read": true, "Write": true, "Close": true, "Len": true, "Less": true, "Swap": true,
	"Seed": true, "Int63": true, "Uint64": true,
}

// exportedUnnamed returns, sorted, the exported top-level identifiers
// (path.Name) and methods (path.Type.Method) declared in the non-test
// files of internal/ that no file outside their package names.
func exportedUnnamed() []string {
	type pkgID struct{ dir, name string } // a directory's package, or its external tests
	type decl struct {
		pkg              pkgID
		path, recv, name string // recv is empty for a top-level name
	}
	var decls []decl
	selected := map[string]map[pkgID]bool{} // selector name → packages using it
	imported := map[string]bool{}           // import path + "." + name selected through it
	inIface := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(file string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if file != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		id := pkgID{filepath.Dir(file), f.Name.Name}
		imports := map[string]string{}
		for _, im := range f.Imports {
			path := strings.Trim(im.Path.Value, `"`)
			name := path[strings.LastIndex(path, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = path
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if selected[x.Sel.Name] == nil {
					selected[x.Sel.Name] = map[pkgID]bool{}
				}
				selected[x.Sel.Name][id] = true
				if pkg, ok := x.X.(*ast.Ident); ok && imports[pkg.Name] != "" {
					imported[imports[pkg.Name]+"."+x.Sel.Name] = true
				}
			case *ast.InterfaceType:
				for _, m := range x.Methods.List {
					for _, name := range m.Names {
						inIface[name.Name] = true
					}
				}
			}
			return true
		})
		if !strings.HasPrefix(file, "internal"+string(filepath.Separator)) || strings.HasSuffix(file, "_test.go") {
			return nil
		}
		path := "privapprox/" + filepath.ToSlash(filepath.Dir(file))
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					decls = append(decls, decl{id, path, "", d.Name.Name})
				} else if len(d.Recv.List) > 0 {
					decls = append(decls, decl{id, path, recvName(d.Recv.List[0].Type), d.Name.Name})
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							decls = append(decls, decl{id, path, "", s.Name.Name})
						}
					case *ast.ValueSpec:
						for _, name := range s.Names {
							if name.IsExported() {
								decls = append(decls, decl{id, path, "", name.Name})
							}
						}
					}
				}
			}
		}
		return nil
	})
	check(err)
	var out []string
	for _, d := range decls {
		if d.recv == "" {
			if !imported[d.path+"."+d.name] {
				out = append(out, strings.TrimPrefix(d.path, "privapprox/")+"."+d.name)
			}
			continue
		}
		named := inIface[d.name] || stdMethods[d.name]
		for id := range selected[d.name] {
			named = named || id != d.pkg
		}
		if !named {
			out = append(out, strings.TrimPrefix(d.path, "privapprox/")+"."+d.recv+"."+d.name)
		}
	}
	sort.Strings(out)
	return out
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
