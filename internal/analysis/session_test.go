package analysis

import (
	"go/token"
	"go/types"
	"testing"
)

// runPkg runs the analyzers over an empty package at path in sess.
func runPkg(t *testing.T, sess *Session, path string, analyzers ...*Analyzer) {
	t.Helper()
	pkg := types.NewPackage(path, PkgBase(path))
	if _, err := sess.Run(token.NewFileSet(), nil, pkg, &types.Info{}, analyzers); err != nil {
		t.Fatalf("run %s: %v", path, err)
	}
}

func probeAnalyzer(run func(*Pass)) *Analyzer {
	return &Analyzer{Name: "probe", Doc: "probe", Run: func(p *Pass) error { run(p); return nil }}
}

type summary struct{ n int }

func TestFactsReachImporterByPathAndNamespace(t *testing.T) {
	sess := NewSession()
	exported := &summary{n: 7}
	runPkg(t, sess, "dep", probeAnalyzer(func(p *Pass) { p.ExportFacts("ns", exported) }))

	var same, otherNS, otherPath, self any
	runPkg(t, sess, "user", probeAnalyzer(func(p *Pass) {
		same = p.Facts("dep", "ns")
		otherNS = p.Facts("dep", "other")
		otherPath = p.Facts("elsewhere", "ns")
		self = p.Facts("user", "ns")
	}))
	if got, ok := same.(*summary); !ok || got != exported {
		t.Errorf("Facts(dep, ns) = %#v, want the exported value %p", same, exported)
	}
	for name, v := range map[string]any{"another namespace": otherNS, "another path": otherPath, "the importer itself": self} {
		if v != nil {
			t.Errorf("%s reads %#v, want nil", name, v)
		}
	}
}

func TestNilSessionHasNoFacts(t *testing.T) {
	var sess *Session
	sess.SetFacts("dep", "ns", 1)
	if v := sess.Facts("dep", "ns"); v != nil {
		t.Errorf("nil session Facts = %#v, want nil", v)
	}
	var read any = "unset"
	runPkg(t, sess, "dep", probeAnalyzer(func(p *Pass) {
		p.ExportFacts("ns", 1)
		read = p.Facts("dep", "ns")
	}))
	if read != nil {
		t.Errorf("Pass.Facts through a nil session = %#v, want nil", read)
	}
}

func TestSecondExportReplacesFirst(t *testing.T) {
	sess := NewSession()
	runPkg(t, sess, "dep", probeAnalyzer(func(p *Pass) {
		p.ExportFacts("ns", 1)
		p.ExportFacts("ns", 2)
	}))
	if v := sess.Facts("dep", "ns"); v != 2 {
		t.Errorf("Facts after two exports = %#v, want 2", v)
	}
}

func TestSharedBuildsOncePerPackage(t *testing.T) {
	builds := 0
	var got []any
	share := probeAnalyzer(func(p *Pass) {
		got = append(got, p.Shared("k", func() any {
			builds++
			return &summary{n: builds}
		}))
	})
	sess := NewSession()
	runPkg(t, sess, "a", share, share, share)
	if builds != 1 {
		t.Fatalf("three analyzers of one run built %d times, want 1", builds)
	}
	if got[0] != got[1] || got[1] != got[2] {
		t.Errorf("analyzers of one run saw different values: %v", got)
	}
	runPkg(t, sess, "b", share)
	if builds != 2 {
		t.Errorf("a second package reused the first package's value (builds = %d, want 2)", builds)
	}
	if got[3] == got[0] {
		t.Error("a second package saw the first package's value")
	}
}
