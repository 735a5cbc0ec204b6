package load

import (
	"os"
	"path/filepath"
	"testing"
)

// A "./..." walk stops at a nested module, as the go command's does:
// its packages belong to another module and are not loaded.
func TestLoadSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	for rel, content := range map[string]string{
		"go.mod":        "module example.com/outer\n\ngo 1.22\n",
		"a/a.go":        "package a\n\nconst A = 1\n",
		"nested/go.mod": "module example.com/nested\n\ngo 1.22\n",
		"nested/b/b.go": "package b\n\nconst B = 2\n",
	} {
		p := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	pkgs, err := Config{Dir: root}.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range pkgs {
		got = append(got, p.ImportPath)
	}
	if len(got) != 1 || got[0] != "example.com/outer/a" {
		t.Errorf("loaded %v, want only example.com/outer/a", got)
	}
}
