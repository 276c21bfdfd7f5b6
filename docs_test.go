package cacheportal

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the hand-written documents whose file and flag references
// must match the tree.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

var (
	// A backticked Go file name or path: `registry.go`, `internal/engine/select.go`.
	docGoFile = regexp.MustCompile("`([^` ]+\\.go)`")
	// A README flag-table row: | `-name arg` | `daemon`, `daemon` | meaning |
	docFlagRow = regexp.MustCompile("^\\| `-")
	docFlag    = regexp.MustCompile("`-([a-z][a-z0-9-]*)[^`]*`")
	docDaemon  = regexp.MustCompile("`([a-z]+)`")
	// A flag definition in a main package: flag.Int("name", ...).
	flagDef = regexp.MustCompile(`\bflag\.\w+\(\s*"([a-z][a-z0-9-]*)"`)
)

// TestDocsNameRealGoFiles: every backticked *.go name in the documents is a
// file somewhere in the tree, matched on its trailing path elements.
func TestDocsNameRealGoFiles(t *testing.T) {
	var paths []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(p, ".go") {
			paths = append(paths, "/"+filepath.ToSlash(p))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docFiles {
		for i, line := range readDocLines(t, doc) {
			for _, m := range docGoFile.FindAllStringSubmatch(line, -1) {
				name := m[1]
				found := false
				for _, p := range paths {
					if strings.HasSuffix(p, "/"+name) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("%s:%d names %s, which is not in the tree", doc, i+1, name)
				}
			}
		}
	}
}

// TestReadmeFlagsExist: every flag in a README flag-table row is defined by
// each daemon the row names under cmd/ (rows for "all" daemons need only
// one definition).
func TestReadmeFlagsExist(t *testing.T) {
	defined := map[string]map[string]bool{} // daemon → flag names
	mains, err := filepath.Glob("cmd/*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range mains {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		daemon := filepath.Base(filepath.Dir(p))
		if defined[daemon] == nil {
			defined[daemon] = map[string]bool{}
		}
		for _, m := range flagDef.FindAllStringSubmatch(string(src), -1) {
			defined[daemon][m[1]] = true
		}
	}
	rows := 0
	for i, line := range readDocLines(t, "README.md") {
		if !docFlagRow.MatchString(line) {
			continue
		}
		rows++
		cells := strings.Split(line, "|")
		if len(cells) < 4 {
			t.Errorf("README.md:%d: malformed flag row", i+1)
			continue
		}
		daemons := docDaemon.FindAllStringSubmatch(cells[2], -1)
		for _, m := range docFlag.FindAllStringSubmatch(cells[1], -1) {
			name := m[1]
			if len(daemons) == 0 { // "all": some command must define it
				anywhere := false
				for _, flags := range defined {
					anywhere = anywhere || flags[name]
				}
				if !anywhere {
					t.Errorf("README.md:%d: -%s is defined by no command under cmd/", i+1, name)
				}
				continue
			}
			for _, d := range daemons {
				if !defined[d[1]][name] {
					t.Errorf("README.md:%d: -%s is not a flag of cmd/%s", i+1, name, d[1])
				}
			}
		}
	}
	if rows == 0 {
		t.Fatal("README.md has no flag-table rows; the row pattern is stale")
	}
}

func readDocLines(t *testing.T, name string) []string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(string(b), "\n")
}
