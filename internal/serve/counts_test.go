package serve

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"

	disc "repro"
	"repro/internal/serve/api"
	"repro/internal/snapshot"
)

// uniformRelation draws n uniform points in the unit square.
func uniformRelation(rng *rand.Rand, n int) *disc.Relation {
	rel := disc.NewRelation(disc.NewNumericSchema("x", "y"))
	for i := 0; i < n; i++ {
		rel.Append(randTuple2D(rng, 1))
	}
	return rel
}

// deleteRandomRows deletes k random live rows through the mutation path.
func deleteRandomRows(t *testing.T, s *Session, rng *rand.Rand, k int) {
	t.Helper()
	for d := 0; d < k; d++ {
		h := rng.Intn(len(s.logical))
		for s.logical[h] < 0 {
			h = (h + 1) % len(s.logical)
		}
		if _, err := s.applyMutation(&mutation{op: "delete", index: h}); err != nil {
			t.Fatalf("delete %d: %v", h, err)
		}
	}
}

// checkSplitAgainstRebuild compares a mutated session's split and stored
// counts with an exact detection over its live rows.
func checkSplitAgainstRebuild(t *testing.T, s *Session) {
	t.Helper()
	s.stateMu.RLock()
	live := disc.NewRelation(s.Rel.Schema)
	var counts []int
	for _, phys := range s.logical {
		if phys >= 0 {
			live.Append(s.Rel.Tuples[phys])
			counts = append(counts, s.Det.Counts[phys])
		}
	}
	in, out := s.inliers, s.outliers
	s.stateMu.RUnlock()
	det, err := disc.DetectWithIndex(context.Background(), live, s.Cons, nil)
	if err != nil {
		t.Fatal(err)
	}
	if in != len(det.Inliers) || out != len(det.Outliers) {
		t.Fatalf("session split %d inliers / %d outliers, exact rebuild %d / %d",
			in, out, len(det.Inliers), len(det.Outliers))
	}
	for i, want := range det.Counts {
		if counts[i] != want {
			t.Fatalf("live row %d: stored count %d, exact rebuild %d", i, counts[i], want)
		}
	}
}

// TestApproxSessionDeletesMatchRebuild is the regression test for
// approximate detection under mutation: an approx grid session stores the
// saturated count contract (clear inliers η, clear outliers their exact
// count), so the ±1 delete arithmetic keeps the split exact. Before the
// contract, sampled estimates took the ±1 arithmetic and this session
// reported 761 inliers / 2944 outliers against an exact 1742 / 1963.
func TestApproxSessionDeletesMatchRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := NewRegistry(Config{BatchWindow: -1}.withDefaults())
	defer r.Close()
	s, err := r.Upload(context.Background(), "approx", uniformRelation(rng, 4000),
		api.BuildParams{Eps: 0.03, Eta: 11, Kappa: 2, Index: "grid", Approx: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.stats.ApproxSampled == 0 {
		t.Fatal("the session's detection certified nothing from its sample; the approx path did not run")
	}
	for _, c := range s.Det.Counts {
		if c > s.Cons.Eta {
			t.Fatalf("approx detection stored count %d above η=%d", c, s.Cons.Eta)
		}
	}
	deleteRandomRows(t, s, rng, 295)
	checkSplitAgainstRebuild(t, s)
}

// TestLegacySnapshotDeletesMatchRebuild restores a snapshot written with
// full, unsaturated neighbor counts (as sessions persisted them before
// detection stopped at η), then deletes rows: the restore clamps the
// counts to η, and the saturated delete arithmetic keeps the split equal
// to an exact rebuild.
func TestLegacySnapshotDeletesMatchRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rel := uniformRelation(rng, 600)
	cons := disc.Constraints{Eps: 0.08, Eta: 6}
	full := disc.NeighborCounts(rel, cons.Eps, 1, 1)
	above := 0
	for _, c := range full {
		if c > cons.Eta {
			above++
		}
	}
	if above == 0 {
		t.Fatal("no full count exceeds η; the snapshot would not exercise the clamp")
	}
	dir := t.TempDir()
	snap := &snapshot.Snapshot{
		ID: "legacy", Name: "legacy",
		Params: api.BuildParams{Eps: cons.Eps, Eta: cons.Eta, Kappa: 2, Index: "grid"},
		Eps:    cons.Eps, Eta: cons.Eta,
		Rel: rel, Counts: full,
	}
	if err := snapshot.Write(filepath.Join(dir, "legacy"+snapshot.Ext), snap); err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(Config{DataDir: dir, BatchWindow: -1}.withDefaults())
	defer r.Close()
	if err := r.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	s, ok := r.Get("legacy")
	if !ok || !s.Recovered {
		t.Fatal("legacy snapshot was not recovered")
	}
	checkSplitAgainstRebuild(t, s)
	deleteRandomRows(t, s, rng, 200)
	checkSplitAgainstRebuild(t, s)
}
