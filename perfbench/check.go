package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/neighbors"
)

// splitSample is how many seeded tuples the detection check recounts by
// brute force.
const splitSample = 256

// checkBatch runs the batch correctness checks on a pass.
func checkBatch(rep *report, p *batchPass, sp batchSpec, seed int64) {
	rep.check("detection split matches a brute-force count on a sample", checkSplit(p.in, p.det, sp.cons, seed, splitSample))
	rep.check("every saved tuple satisfies the constraints, within κ, at its reported cost",
		checkSaves(p.in, p.det, p.adjs, sp.cons, sp.kappa))
	rep.check("the repaired CSV changes exactly the saved tuples", checkOutput(p))
}

// checkSplit recounts the ε-neighbors of a seeded sample of tuples by
// brute force and compares the inlier/outlier split. Only the split is
// compared: Detection.Counts may legitimately stop counting at η.
func checkSplit(rel *data.Relation, det *core.Detection, cons core.Constraints, seed int64, sample int) error {
	outlier := make([]bool, rel.N())
	for _, i := range det.Outliers {
		outlier[i] = true
	}
	if len(det.Inliers)+len(det.Outliers) != rel.N() {
		return fmt.Errorf("%d inliers + %d outliers != %d tuples", len(det.Inliers), len(det.Outliers), rel.N())
	}
	brute := neighbors.NewBrute(rel)
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(rel.N())
	// Always include the outliers the sample can hold: they are the rare
	// class, and a sample of inliers alone proves little.
	picked := append([]int(nil), det.Outliers...)
	if len(picked) > sample/2 {
		picked = picked[:sample/2]
	}
	for _, i := range idx {
		if len(picked) >= sample {
			break
		}
		picked = append(picked, i)
	}
	for _, i := range picked {
		c := brute.CountWithin(rel.Tuples[i], cons.Eps, i, 0)
		if want := c < cons.Eta; want != outlier[i] {
			return fmt.Errorf("tuple %d has %d ε-neighbors (η=%d) but detection says outlier=%v", i, c, cons.Eta, outlier[i])
		}
	}
	return nil
}

// checkSaves verifies every saved adjustment by brute force: at least η
// ε-neighbors among the inliers, at most κ attributes changed, and a
// reported cost equal to Δ(original, repaired).
func checkSaves(rel *data.Relation, det *core.Detection, adjs []core.Adjustment, cons core.Constraints, kappa int) error {
	if len(adjs) != len(det.Outliers) {
		return fmt.Errorf("%d adjustments for %d outliers", len(adjs), len(det.Outliers))
	}
	if len(det.Inliers) == 0 {
		return nil
	}
	inliers := neighbors.NewBrute(rel.Subset(det.Inliers))
	for _, a := range adjs {
		if !a.Saved() {
			continue
		}
		if err := checkAdjustment(rel.Schema, rel.Tuples[a.Index], a.Tuple, a.Cost, kappa); err != nil {
			return fmt.Errorf("tuple %d: %w", a.Index, err)
		}
		if c := inliers.CountWithin(a.Tuple, cons.Eps, -1, cons.Eta); c < cons.Eta {
			return fmt.Errorf("tuple %d: repaired value has %d ε-neighbors among the inliers, want ≥ %d", a.Index, c, cons.Eta)
		}
	}
	return nil
}

// checkAdjustment verifies one repair against its original: at most κ
// attributes changed (κ ≤ 0 is unrestricted) and cost = Δ(orig, repaired).
func checkAdjustment(sch *data.Schema, orig, repaired data.Tuple, cost float64, kappa int) error {
	if len(repaired) != len(orig) {
		return fmt.Errorf("repaired tuple has %d values, want %d", len(repaired), len(orig))
	}
	changed := 0
	for a := range orig {
		if orig[a] != repaired[a] {
			changed++
		}
	}
	if kappa > 0 && changed > kappa {
		return fmt.Errorf("%d attributes changed, κ=%d", changed, kappa)
	}
	if d := sch.Dist(orig, repaired); !closeTo(d, cost) {
		return fmt.Errorf("reported cost %v, Δ(original, repaired) = %v", cost, d)
	}
	return nil
}

func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// checkOutput parses the repaired CSV back and compares it row by row with
// the input: saved tuples carry their adjustment, every other row
// (inliers and natural outliers) is unchanged.
func checkOutput(p *batchPass) error {
	if len(p.out) == 0 {
		return errors.New("no repaired CSV")
	}
	out, err := data.ReadCSV(bytes.NewReader(p.out))
	if err != nil {
		return fmt.Errorf("parsing the repaired CSV: %w", err)
	}
	if out.N() != p.in.N() {
		return fmt.Errorf("repaired CSV has %d rows, input %d", out.N(), p.in.N())
	}
	want := make([]data.Tuple, p.in.N())
	copy(want, p.in.Tuples)
	for _, a := range p.adjs {
		if a.Saved() {
			want[a.Index] = a.Tuple
		}
	}
	for i := range want {
		if !equalTuple(out.Tuples[i], want[i]) {
			return fmt.Errorf("row %d is %v, want %v", i, out.Tuples[i], want[i])
		}
	}
	return nil
}

func equalTuple(a, b data.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
