package doccheck

import (
	"os"
	"path/filepath"
	"testing"
)

// TestGodocCoverage is CI's missing-doc gate: the packages listed here —
// every internal package — must document every exported symbol.
func TestGodocCoverage(t *testing.T) {
	for _, pkg := range []string{
		"../adapt",
		"../bench",
		"../clkernel",
		"../colproto",
		"../core",
		"../doccheck",
		"../engine",
		"../experiments",
		"../features",
		"../freq",
		"../gpu",
		"../httpjson",
		"../measure",
		"../nvml",
		"../pareto",
		"../policy",
		"../registry",
		"../svm",
		"../svm/svmtest",
		"../synth",
	} {
		missing, err := Missing(pkg)
		if err != nil {
			t.Fatalf("%s: %v", pkg, err)
		}
		for _, m := range missing {
			t.Errorf("%s", m)
		}
	}
}

// TestMissingDetects verifies the checker actually flags undocumented
// exported symbols (so a silent parser regression cannot fake coverage).
func TestMissingDetects(t *testing.T) {
	dir := t.TempDir()
	src := `// Package fixture is a doccheck test fixture.
package fixture

// Documented is fine.
const Documented = 1

const Undocumented = 2

type Bad struct{}

func AlsoBad() {}

// ok has a doc comment but is unexported anyway.
func ok() {}
`
	if err := os.WriteFile(filepath.Join(dir, "fixture.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	missing, err := Missing(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 3 {
		t.Fatalf("flagged %d symbols, want 3 (Undocumented, Bad, AlsoBad): %v", len(missing), missing)
	}
}
