package disc_test

// Exact detection on the jittered-lattice workload (uniform density,
// closed-form neighbor geometry) at n = 64k and n ≈ 1M, against a
// prebuilt index, so the numbers are pure classification cost: one
// η-capped ε-count per tuple.
//
//	go test -bench BenchmarkDetectExactLattice -benchmem

import (
	"context"
	"sync"
	"testing"

	disc "repro"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/neighbors"
)

// latticeBenchCons: unit ε on a unit-cell lattice; η = 20 sits far below
// the interior density (≈ 4.19 · PerCell), so the η cap cuts every
// inlier's count short.
var latticeBenchCons = disc.Constraints{Eps: 1, Eta: 20}

// latticeBenchSpecs are the two workload sizes: 10³ cells × 64 = 64k and
// 24³ cells × 72 = 995,328 (the n ≈ 1M leg). Noise rows are isolated
// outliers so the split is never degenerate.
var latticeBenchSpecs = []struct {
	size string
	spec data.LatticeSpec
}{
	{"n=64k", data.LatticeSpec{Side: 10, PerCell: 64, Dims: 3, Noise: 64, Seed: 41}},
	{"n=1m", data.LatticeSpec{Side: 24, PerCell: 72, Dims: 3, Noise: 64, Seed: 43}},
}

var latticeBenchState = map[string]*struct {
	once sync.Once
	rel  *disc.Relation
	idx  neighbors.Index
}{
	"n=64k": {},
	"n=1m":  {},
}

// latticeBenchWorkload builds each size's relation and index once per
// process; the benchmark then measures detection only.
func latticeBenchWorkload(b *testing.B, size string, spec data.LatticeSpec) (*disc.Relation, neighbors.Index) {
	b.Helper()
	st := latticeBenchState[size]
	st.once.Do(func() {
		rel, err := data.GenLattice(spec)
		if err != nil {
			b.Fatal(err)
		}
		st.rel, st.idx = rel, neighbors.Build(rel, latticeBenchCons.Eps)
	})
	return st.rel, st.idx
}

func BenchmarkDetectExactLattice(b *testing.B) {
	for _, ws := range latticeBenchSpecs {
		b.Run(ws.size, func(b *testing.B) {
			rel, idx := latticeBenchWorkload(b, ws.size, ws.spec)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			var det *core.Detection
			var err error
			for i := 0; i < b.N; i++ {
				if det, err = core.DetectContext(ctx, rel, latticeBenchCons, idx); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if len(det.Outliers) == 0 || len(det.Inliers) == 0 {
				b.Fatalf("degenerate split: %d inliers, %d outliers", len(det.Inliers), len(det.Outliers))
			}
		})
	}
}
