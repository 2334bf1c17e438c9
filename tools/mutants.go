//go:build ignore

// Mutants re-runs the mutants checked in to testdata/mutants.json, the
// bugs that a test was written or kept to catch. Each entry names a file,
// a piece of text that must occur in it exactly once (old), its
// replacement (new), and the package and -run pattern of the test that
// must fail once the replacement is made. The replacement is applied
// through `go test -overlay`, so the tree itself is never edited.
//
// Every listed run must first pass on the unmutated tree. An entry whose
// old text no longer occurs exactly once is stale and fails the run, so
// a change that moves the mutated code has to update the entry. A
// mutant that does not compile, or whose test passes, fails it too.
//
// Run it from the repository root:
//
//	go run tools/mutants.go
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// mutant is one entry of the list.
type mutant struct {
	Name    string `json:"name"`
	File    string `json:"file"`
	Old     string `json:"old"`
	New     string `json:"new"`
	Package string `json:"package"`
	Run     string `json:"run"`
	PR      int    `json:"pr"`
}

func main() {
	raw, err := os.ReadFile("testdata/mutants.json")
	check(err)
	var ms []mutant
	check(json.Unmarshal(raw, &ms))

	// Every entry is checked before anything runs: a stale entry fails the
	// whole list at once.
	srcs := make([]string, len(ms))
	stale := 0
	for i, m := range ms {
		if m.Name == "" || m.File == "" || m.Old == "" || m.Package == "" || m.Run == "" || m.Old == m.New {
			fmt.Printf("invalid  %s: name, file, old, package and run are required, and new must differ from old\n", m.Name)
			stale++
			continue
		}
		src, err := os.ReadFile(m.File)
		if err != nil {
			fmt.Printf("stale    %s: %v\n", m.Name, err)
			stale++
			continue
		}
		if n := strings.Count(string(src), m.Old); n != 1 {
			fmt.Printf("stale    %s: old occurs %d times in %s, want exactly once\n", m.Name, n, m.File)
			stale++
			continue
		}
		srcs[i] = strings.Replace(string(src), m.Old, m.New, 1)
	}
	if stale > 0 {
		fail("%d of %d mutants are stale or invalid", stale, len(ms))
	}

	tmp, err := os.MkdirTemp("", "mutants")
	check(err)
	defer os.RemoveAll(tmp)

	// The unmutated tree passes every listed run.
	type run struct{ pkg, pattern string }
	seen := map[run]bool{}
	bad := 0
	for _, m := range ms {
		r := run{m.Package, m.Run}
		if seen[r] {
			continue
		}
		seen[r] = true
		start := time.Now()
		if out, err := goTest("", m.Package, m.Run); err != nil {
			fmt.Printf("FAILS    unmutated %s -run '%s' (%v)\n%s\n", m.Package, m.Run, err, out)
			bad++
			continue
		}
		fmt.Printf("passes   unmutated %s -run '%s' (%.1fs)\n", m.Package, m.Run, time.Since(start).Seconds())
	}
	if bad > 0 {
		cleanExit(tmp, "%d listed runs fail on the unmutated tree", bad)
	}

	for i, m := range ms {
		file := filepath.Join(tmp, fmt.Sprintf("m%d.go", i))
		check(os.WriteFile(file, []byte(srcs[i]), 0o644))
		abs, err := filepath.Abs(m.File)
		check(err)
		overlay, err := json.Marshal(map[string]map[string]string{"Replace": {abs: file}})
		check(err)
		ov := filepath.Join(tmp, fmt.Sprintf("m%d.json", i))
		check(os.WriteFile(ov, overlay, 0o644))

		start := time.Now()
		out, err := goTest(ov, m.Package, m.Run)
		took := time.Since(start).Seconds()
		switch {
		case err == nil:
			fmt.Printf("SURVIVED %s (PR %d): %s -run '%s' passes (%.1fs)\n", m.Name, m.PR, m.Package, m.Run, took)
			bad++
		case bytes.Contains(out, []byte("[build failed]")) || bytes.Contains(out, []byte("[setup failed]")):
			fmt.Printf("BROKEN   %s (PR %d): the mutant does not build\n%s\n", m.Name, m.PR, out)
			bad++
		default:
			fmt.Printf("killed   %s (PR %d) by %s -run '%s' (%.1fs)\n", m.Name, m.PR, m.Package, m.Run, took)
		}
	}
	if bad > 0 {
		cleanExit(tmp, "%d of %d mutants survived or did not build", bad, len(ms))
	}
	fmt.Printf("%d of %d mutants killed\n", len(ms), len(ms))
}

// goTest runs one package's tests matching pattern, through overlay when
// it is not empty, and returns the combined output.
func goTest(overlay, pkg, pattern string) ([]byte, error) {
	args := []string{"test", "-count=1", "-timeout=120s", "-run", pattern}
	if overlay != "" {
		args = append(args, "-overlay", overlay)
	}
	return exec.Command("go", append(args, pkg)...).CombinedOutput()
}

func cleanExit(tmp, format string, args ...any) {
	os.RemoveAll(tmp)
	fail(format, args...)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

func check(err error) {
	if err != nil {
		fail("%v", err)
	}
}
