package doclint

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// repoRoot walks up from the working directory to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}

// TestRepositoryGodoc is the doc-lint gate: every exported symbol across
// internal/... and cmd/... (and the repo root) must carry a doc comment.
// CI runs this test as a named step; it also rides along in go test ./...
func TestRepositoryGodoc(t *testing.T) {
	violations, err := Check(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range violations {
		t.Error(v)
	}
	if len(violations) > 0 {
		t.Fatalf("%d undocumented exports (every exported symbol needs a doc comment; see internal/doclint)", len(violations))
	}
}

// TestCheckFindsPlantedViolations exercises the checker itself against a
// synthetic package with known documentation gaps, so a silently broken
// walker cannot turn the gate green.
func TestCheckFindsPlantedViolations(t *testing.T) {
	dir := t.TempDir()
	src := `package planted

// Documented is fine.
func Documented() {}

func Undocumented() {}

type Exposed struct{}

// Fine has a doc comment.
func (Exposed) Fine() {}

func (*Exposed) Bad() {}

type hidden struct{}

// Methods on unexported types are not part of the godoc surface.
func (hidden) Whatever() {}

const (
	// Documented consts pass.
	DocumentedConst = 1
	BareConst       = 2
)

var BareVar = 3
`
	if err := os.WriteFile(filepath.Join(dir, "planted.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	// A test file with undocumented exports must be ignored.
	testSrc := "package planted\n\nfunc TestHelperExport() {}\n"
	if err := os.WriteFile(filepath.Join(dir, "planted_test.go"), []byte(testSrc), 0o644); err != nil {
		t.Fatal(err)
	}

	violations, err := Check(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"package planted":    true, // no package comment
		"func Undocumented":  true,
		"type Exposed":       true,
		"method Exposed.Bad": true,
		"const BareConst":    true,
		"var BareVar":        true,
	}
	got := map[string]bool{}
	for _, v := range violations {
		got[v.Symbol] = true
	}
	for sym := range want {
		if !got[sym] {
			t.Errorf("checker missed %q", sym)
		}
	}
	for sym := range got {
		if !want[sym] {
			t.Errorf("checker falsely flagged %q", sym)
		}
	}
}

// TestReadmeTablesMatchTree pins README's Commands table to the
// directories under cmd/ and its Package map to those under internal/:
// each directory has exactly one row, and no row names a directory that
// is gone.
func TestReadmeTablesMatchTree(t *testing.T) {
	root := repoRoot(t)
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ heading, dir string }{
		{"## Commands", "cmd"},
		{"## Package map", "internal"},
	} {
		var rows []string
		in := false
		for _, line := range strings.Split(string(readme), "\n") {
			if strings.HasPrefix(line, "## ") {
				in = line == c.heading
				continue
			}
			// A row's first cell is the directory in backquotes.
			if first, ok := strings.CutPrefix(line, "| `"+c.dir+"/"); in && ok {
				name, _, _ := strings.Cut(first, "`")
				rows = append(rows, name)
			}
		}
		des, err := os.ReadDir(filepath.Join(root, c.dir))
		if err != nil {
			t.Fatal(err)
		}
		var dirs []string
		for _, de := range des {
			if de.IsDir() {
				dirs = append(dirs, de.Name())
			}
		}
		slices.Sort(rows)
		if !slices.Equal(rows, dirs) {
			t.Errorf("README %q lists %s/ as %v; the tree holds %v", c.heading, c.dir, rows, dirs)
		}
	}
}
