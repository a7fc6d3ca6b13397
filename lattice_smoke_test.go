package disc_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	disc "repro"
)

// TestLatticeSmoke drives the CLIs end-to-end over a streamed workload:
// datagen streams a jittered-lattice CSV, disccli runs detect-and-repair
// over it, and the emitted -stats-json must show the expected tuple and
// outlier counts with the index counters reconciling to at least one
// ε-count per tuple. Wired into `make check` as the lattice-smoke target.
func TestLatticeSmoke(t *testing.T) {
	datagen := buildTool(t, "datagen")
	disccli := buildTool(t, "disccli")

	dir := t.TempDir()
	in := filepath.Join(dir, "lattice.csv")
	out := filepath.Join(dir, "fixed.csv")
	statsPath := filepath.Join(dir, "stats.json")

	// 10³ cells × 48 = 48k lattice rows (η = 20 well under the ≈ 201
	// interior density) plus 8 isolated outliers, streamed to CSV.
	f, err := os.Create(in)
	if err != nil {
		t.Fatal(err)
	}
	gen := exec.Command(datagen, "-lattice", "-side", "10", "-per-cell", "48", "-noise", "8", "-seed", "5")
	gen.Stdout = f
	var genErr bytes.Buffer
	gen.Stderr = &genErr
	if err := gen.Run(); err != nil {
		t.Fatalf("datagen -lattice: %v\n%s", err, genErr.String())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	run := exec.Command(disccli,
		"-in", in, "-out", out,
		"-eps", "1", "-eta", "20",
		"-max-nodes", "2000",
		"-stats-json", statsPath)
	var runErr bytes.Buffer
	run.Stderr = &runErr
	if err := run.Run(); err != nil {
		t.Fatalf("disccli: %v\n%s", err, runErr.String())
	}

	raw, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Tuples   int `json:"tuples"`
		Outliers int `json:"outliers"`
		Stats    struct {
			RangeQueries int64 `json:"range_queries"`
			DistEvals    int64 `json:"dist_evals"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("parsing %s: %v", statsPath, err)
	}
	if doc.Tuples != 48008 {
		t.Fatalf("run saw %d tuples, want 48008", doc.Tuples)
	}
	if doc.Outliers < 8 {
		t.Fatalf("run found %d outliers, want at least the 8 isolated noise rows", doc.Outliers)
	}
	// Detection alone issues one ε-count per tuple; the η-radius pass
	// and the saves add more.
	if st := doc.Stats; st.RangeQueries < int64(doc.Tuples) || st.DistEvals == 0 {
		t.Fatalf("index counters %+v do not cover one count per tuple (%d)\n%s", st, doc.Tuples, runErr.String())
	}

	// The repaired CSV round-trips: same row count as the input.
	fixedRaw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := disc.ReadCSV(bytes.NewReader(fixedRaw))
	if err != nil {
		t.Fatal(err)
	}
	if rel.N() != doc.Tuples {
		t.Fatalf("repaired CSV has %d rows, want %d", rel.N(), doc.Tuples)
	}
}
