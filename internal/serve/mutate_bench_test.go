package serve

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	disc "repro"
	"repro/internal/serve/api"
)

// benchMutParams holds the constant-density benchmark geometry: tuples
// uniform over a square sized so the expected ε-ball population stays the
// same at every n, making per-mutation cost comparable across sizes.
const (
	benchMutEps = 1.0
	benchMutEta = 4
)

func benchMutRelation(n int) *disc.Relation {
	rng := rand.New(rand.NewSource(1))
	scale := math.Sqrt(float64(n)) / 2 // density 4 per unit²: ~12 expected ε-neighbors
	rel := disc.NewRelation(disc.NewNumericSchema("x", "y"))
	for i := 0; i < n; i++ {
		rel.Append(disc.Tuple{disc.Num(rng.Float64() * scale), disc.Num(rng.Float64() * scale)})
	}
	return rel
}

func benchMutSession(b *testing.B, n int) *Session {
	b.Helper()
	r := NewRegistry(Config{BatchWindow: -1}.withDefaults())
	b.Cleanup(r.Close)
	s, err := r.Upload(context.Background(), "bench", benchMutRelation(n),
		api.BuildParams{Eps: benchMutEps, Eta: benchMutEta, Kappa: 2, Index: "grid"})
	if err != nil {
		b.Fatalf("upload: %v", err)
	}
	return s
}

// BenchmarkMutateInsert measures one incremental insert against a live
// session: the ε-ball redetect, the index append, and the saver's
// η-radius refresh. Only the insert is timed — each iteration's follow-up
// delete (keeping the dataset at size n) runs with the timer stopped.
// Compare against BenchmarkMutateRebuild at the same n: the gap is what
// incremental maintenance saves over rebuild-per-mutation, and its growth
// with n is the sublinearity the mutation path claims.
func BenchmarkMutateInsert(b *testing.B) {
	for _, n := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := benchMutSession(b, n)
			rng := rand.New(rand.NewSource(2))
			scale := math.Sqrt(float64(n)) / 2
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tp := disc.Tuple{disc.Num(rng.Float64() * scale), disc.Num(rng.Float64() * scale)}
				mres, err := s.applyMutation(&mutation{op: "insert", tuple: tp})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if _, err := s.applyMutation(&mutation{op: "delete", index: mres.Index}); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkRedetectTouched measures one incremental update (tombstone +
// re-insert + ε-ball redetect around both values) and reports the average
// number of tuples whose neighbor counts were re-examined — the
// incremental alternative to the n-sized re-detection a rebuild pays.
func BenchmarkRedetectTouched(b *testing.B) {
	for _, n := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := benchMutSession(b, n)
			rng := rand.New(rand.NewSource(3))
			scale := math.Sqrt(float64(n)) / 2
			var touched int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tp := disc.Tuple{disc.Num(rng.Float64() * scale), disc.Num(rng.Float64() * scale)}
				mres, err := s.applyMutation(&mutation{op: "update", index: rng.Intn(n), tuple: tp})
				if err != nil {
					b.Fatal(err)
				}
				touched += int64(mres.Touched)
			}
			b.ReportMetric(float64(touched)/float64(b.N), "touched/op")
		})
	}
}

// BenchmarkMutateRebuild is the from-scratch baseline the incremental path
// replaces: rebuild the neighbor index and re-run detection over all n
// rows, the cost an immutable session would pay per mutation. (It still
// omits the saver rebuild, so the baseline is conservative.)
func BenchmarkMutateRebuild(b *testing.B) {
	for _, n := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rel := benchMutRelation(n)
			cons := disc.Constraints{Eps: benchMutEps, Eta: benchMutEta}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx, err := disc.NewMutableIndex(rel, cons.Eps, disc.KindGrid)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := disc.DetectContext(context.Background(), rel, cons, idx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
