package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/cpskit/atypical"
	"github.com/cpskit/atypical/internal/storage"
)

// Two runs over one catalog must write byte-identical forest directories:
// cluster IDs follow the canonical day order, never map iteration order.
func TestRunWritesDeterministicForest(t *testing.T) {
	cfg := atypical.DefaultConfig()
	cfg.Sensors, cfg.DaysPerMonth = 80, 8
	sys, err := atypical.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	catalog, err := storage.OpenCatalog(data)
	if err != nil {
		t.Fatal(err)
	}
	for m, name := range []string{"d01", "d02"} {
		if _, err := catalog.Write(name, sys.GenerateMonth(m).Atypical); err != nil {
			t.Fatal(err)
		}
	}

	build := func(out string) map[string][]byte {
		t.Helper()
		var stdout bytes.Buffer
		if err := run([]string{"-data", data, "-out", out, "-sensors", "80"}, &stdout); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(out)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(out, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = b
		}
		return files
	}
	first := build(filepath.Join(dir, "forest1"))
	second := build(filepath.Join(dir, "forest2"))
	if len(first) != 2*cfg.DaysPerMonth {
		t.Fatalf("forest has %d files, want one per day (%d)", len(first), 2*cfg.DaysPerMonth)
	}
	for name, want := range first {
		if got, ok := second[name]; !ok || !bytes.Equal(got, want) {
			t.Errorf("%s differs between two runs over the same catalog", name)
		}
	}
	if len(second) != len(first) {
		t.Errorf("second run wrote %d files, first %d", len(second), len(first))
	}
}
