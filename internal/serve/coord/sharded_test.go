// The end-to-end sharding property: a relation served by a coordinator that
// scatters every request across S worker replicas must answer exactly as
// one in-process run.
package coord_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/metric"
	"repro/internal/neighbors"
	"repro/internal/serve"
	"repro/internal/serve/api"
	"repro/internal/serve/client"
	"repro/internal/serve/coord"
)

// TestShardedDifferential is the bit-exactness property test of sharded
// serving: for every index kind, every norm, every shard count in
// {1, 2, 4, 8}, and a relation seeded with cell-boundary duplicates, a
// coordinator over S full-replica workers, with each detect and repair
// scattered in S chunks, must equal the single-node core results exactly:
// same neighbor counts, same inlier/outlier split, same adjustments
// (tuples, costs, flags, even the per-save search node counts, since every
// worker runs the identical deterministic saver) and same accounting.
func TestShardedDifferential(t *testing.T) {
	kinds := []neighbors.IndexKind{neighbors.KindBrute, neighbors.KindGrid, neighbors.KindKD, neighbors.KindVP}
	norms := []metric.Norm{metric.L1, metric.L2, metric.LInf}
	cons := core.Constraints{Eps: 1.0, Eta: 4}
	opts := core.Options{Kappa: 2}
	dir := t.TempDir()

	for _, norm := range norms {
		rel := clusteredRelation(300, 3, 53)
		rel.Schema.Norm = norm
		single, err := core.SaveAllContext(context.Background(), rel, cons, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(single.Detection.Outliers) < 8 || len(single.Detection.Inliers) == 0 {
			t.Fatalf("norm %v: degenerate split (%d inliers, %d outliers) proves nothing",
				norm, len(single.Detection.Inliers), len(single.Detection.Outliers))
		}
		if single.Saved == 0 {
			t.Fatalf("norm %v: no outlier saved, the save leg is untested", norm)
		}
		path := filepath.Join(dir, norm.String()+".json")
		writeDataset(t, path, rel, cons)
		tuples := rowsJSON(rel.Tuples)
		var outliers []data.Tuple
		for _, i := range single.Detection.Outliers {
			outliers = append(outliers, rel.Tuples[i])
		}

		for _, kind := range kinds {
			for _, s := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("%v/%v/S=%d", norm, kind, s), func(t *testing.T) {
					ctx := context.Background()
					co, cl := startShards(t, s)
					body, err := json.Marshal(map[string]any{
						"path": path, "eps": cons.Eps, "eta": cons.Eta,
						"kappa": opts.Kappa, "index": kind.String(),
					})
					if err != nil {
						t.Fatal(err)
					}
					info, err := cl.CreateDatasetRaw(ctx, "application/json", "", body)
					if err != nil {
						t.Fatalf("create: %v", err)
					}
					if info.Index != kind.String() {
						t.Fatalf("session index = %q, want %q", info.Index, kind)
					}

					det, err := cl.Detect(ctx, info.ID, tuples, true)
					if err != nil {
						t.Fatalf("detect: %v", err)
					}
					if len(det.Results) != rel.N() {
						t.Fatalf("got %d detect results, want %d", len(det.Results), rel.N())
					}
					var gotOut []int
					for i, res := range det.Results {
						if res.Neighbors != single.Detection.Counts[i] {
							t.Fatalf("tuple %d: sharded neighbor count %d, single-node %d",
								i, res.Neighbors, single.Detection.Counts[i])
						}
						if res.Outlier {
							gotOut = append(gotOut, i)
						}
					}
					if fmt.Sprint(gotOut) != fmt.Sprint(single.Detection.Outliers) {
						t.Fatal("sharded detection split diverges from single-node split")
					}

					rep, err := cl.Repair(ctx, info.ID, rowsJSON(outliers), 0)
					if err != nil {
						t.Fatalf("repair: %v", err)
					}
					if len(rep.Adjustments) != len(single.Adjustments) {
						t.Fatalf("got %d adjustments, want %d", len(rep.Adjustments), len(single.Adjustments))
					}
					for k, got := range rep.Adjustments {
						assertAdjustment(t, k, got, single.Adjustments[k])
					}
					if rep.Saved != single.Saved || rep.Natural != single.Natural ||
						rep.Exhausted != single.Exhausted {
						t.Fatalf("accounting diverges: sharded %d/%d/%d, single %d/%d/%d",
							rep.Saved, rep.Natural, rep.Exhausted,
							single.Saved, single.Natural, single.Exhausted)
					}
					// Both requests really were split S ways, and no chunk was lost.
					snap := co.Stats()
					if snap.Scatters != 2 || snap.ScatterChunks != int64(2*s) || snap.ChunkFailures != 0 {
						t.Fatalf("scatter counters = %+v, want 2 scatters / %d chunks / 0 failures", snap, 2*s)
					}
				})
			}
		}
	}
}

// assertAdjustment compares one served adjustment with the single-node one.
func assertAdjustment(t *testing.T, k int, got api.Adjustment, want core.Adjustment) {
	t.Helper()
	if got.Saved != want.Saved() || got.Natural != want.Natural ||
		got.Exhausted != want.Exhausted || got.Nodes != want.Nodes {
		t.Fatalf("adjustment %d diverges:\nsharded: %+v\nsingle:  %+v", k, got, want)
	}
	if !want.Saved() {
		return
	}
	if got.Cost != want.Cost || len(got.Tuple) != len(want.Tuple) {
		t.Fatalf("adjustment %d diverges:\nsharded: %+v\nsingle:  %+v", k, got, want)
	}
	for a, v := range got.Tuple {
		if f, ok := v.(float64); !ok || f != want.Tuple[a].Num {
			t.Fatalf("adjustment %d attr %d: sharded %v, single %v", k, a, v, want.Tuple[a].Num)
		}
	}
}

// startShards serves s real workers behind httptest listeners and a
// coordinator that places every session on all of them, so each request
// scatters in s chunks.
func startShards(t *testing.T, s int) (*coord.Coordinator, *client.Client) {
	t.Helper()
	urls := make([]string, s)
	for i := range urls {
		srv := serve.New(serve.Config{MaxSessions: 4})
		ts := httptest.NewServer(srv.Handler())
		urls[i] = ts.URL
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
	}
	co, err := coord.New(coord.Config{Workers: urls, Replicas: s, RequestTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(co.Handler())
	t.Cleanup(ts.Close)
	return co, client.New(client.Config{BaseURL: ts.URL, MaxRetries: -1, RequestTimeout: 20 * time.Second})
}

// writeDataset stores rel as dataset JSON, the one upload format that
// carries the schema's norm.
func writeDataset(t *testing.T, path string, rel *data.Relation, cons core.Constraints) {
	t.Helper()
	n := rel.N()
	ds := &data.Dataset{Name: filepath.Base(path), Rel: rel, Labels: make([]int, n),
		Dirty: make([]data.AttrMask, n), Natural: make([]bool, n), Clean: make([]data.Tuple, n),
		Eps: cons.Eps, Eta: cons.Eta, Classes: 1}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := data.WriteDatasetJSON(f, ds); err != nil {
		t.Fatal(err)
	}
}

// rowsJSON renders numeric tuples as request rows.
func rowsJSON(ts []data.Tuple) [][]any {
	out := make([][]any, len(ts))
	for i, tp := range ts {
		row := make([]any, len(tp))
		for a, v := range tp {
			row[a] = v.Num
		}
		out[i] = row
	}
	return out
}

// clusteredRelation draws n tuples over m numeric attributes: five Gaussian
// clusters, every seventh tuple uniform noise, plus pairs of identical
// tuples pinned exactly on cell-boundary coordinates (integer multiples of
// the ε=1 cell).
func clusteredRelation(n, m int, seed int64) *data.Relation {
	names := make([]string, m)
	for a := range names {
		names[a] = string(rune('a' + a))
	}
	r := data.NewRelation(data.NewNumericSchema(names...))
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, 5)
	for c := range centers {
		centers[c] = make([]float64, m)
		for a := range centers[c] {
			centers[c][a] = rng.Float64()*20 - 10
		}
	}
	for i := 0; i < n; i++ {
		t := make(data.Tuple, m)
		if i%7 == 6 {
			for a := 0; a < m; a++ {
				t[a] = data.Num(rng.Float64()*40 - 20)
			}
		} else {
			ct := centers[i%len(centers)]
			for a := 0; a < m; a++ {
				t[a] = data.Num(ct[a] + rng.NormFloat64()*0.8)
			}
		}
		r.Append(t)
	}
	for k := 0; k < 8; k++ {
		t := make(data.Tuple, m)
		for a := 0; a < m; a++ {
			t[a] = data.Num(float64(k%4) * 1.0)
		}
		r.Append(t)
		r.Append(t.Clone())
	}
	return r
}
