package serve

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	disc "repro"
	"repro/internal/serve/api"
)

func randTuple2D(rng *rand.Rand, scale float64) disc.Tuple {
	return disc.Tuple{disc.Num(rng.Float64() * scale), disc.Num(rng.Float64() * scale)}
}

func tupleAny(t disc.Tuple) []any {
	out := make([]any, len(t))
	for i := range t {
		out[i] = t[i].Num
	}
	return out
}

// randLiveHandle picks a uniformly random non-deleted logical handle.
func randLiveHandle(rng *rand.Rand, mirror []disc.Tuple) int {
	for {
		h := rng.Intn(len(mirror))
		if mirror[h] != nil {
			return h
		}
	}
}

// TestMutateDifferential is the acceptance property of the mutation path:
// after a random interleaving of inserts, updates and deletes, the mutated
// session answers /detect and /save exactly like a session built from
// scratch over the same live rows — across all four index kinds. Run under
// -race this also exercises the mutation/query locking.
func TestMutateDifferential(t *testing.T) {
	for _, kind := range []string{"brute", "grid", "kd", "vp"} {
		t.Run(kind, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			s := newTestServer(t, Config{BatchWindow: -1, Workers: 2})

			rel := disc.NewRelation(disc.NewNumericSchema("x", "y"))
			for i := 0; i < 60; i++ {
				rel.Append(randTuple2D(rng, 1))
			}
			var buf bytes.Buffer
			if err := disc.WriteCSV(&buf, rel); err != nil {
				t.Fatal(err)
			}
			w := do(t, s, "POST", "/v1/datasets", api.CreateRequest{
				Name: "mut", CSV: buf.String(), BuildParams: api.BuildParams{Eps: 0.25, Eta: 3, Kappa: 2, Index: kind},
			})
			if w.Code != http.StatusCreated {
				t.Fatalf("upload: status %d, body %s", w.Code, w.Body.String())
			}
			info := decode[SessionInfo](t, w)
			if info.Index != kind {
				t.Fatalf("session index = %q, want %q", info.Index, kind)
			}

			// mirror tracks the logical row handles client-side: nil = hole.
			mirror := make([]disc.Tuple, rel.N())
			copy(mirror, rel.Tuples)
			live := rel.N()

			for op := 0; op < 45; op++ {
				switch {
				case live < 30 || rng.Intn(3) == 0: // insert
					scale := 1.0
					if rng.Intn(4) == 0 {
						// Far outside the initial bounding box: on grid this
						// refuses the native cell insert and lands in the
						// delta buffer.
						scale = 50
					}
					tp := randTuple2D(rng, scale)
					w := do(t, s, "POST", "/v1/datasets/"+info.ID+"/tuples",
						api.TupleRequest{Tuple: tupleAny(tp)})
					if w.Code != http.StatusCreated {
						t.Fatalf("insert: status %d, body %s", w.Code, w.Body.String())
					}
					mres := decode[api.MutateResponse](t, w)
					if mres.Index != len(mirror) {
						t.Fatalf("insert handle = %d, want %d", mres.Index, len(mirror))
					}
					mirror = append(mirror, tp)
					live++
					if mres.Tuples != live {
						t.Fatalf("insert reported %d live tuples, want %d", mres.Tuples, live)
					}
				case rng.Intn(2) == 0: // update
					h := randLiveHandle(rng, mirror)
					tp := randTuple2D(rng, 1)
					w := do(t, s, "PUT", fmt.Sprintf("/v1/datasets/%s/tuples/%d", info.ID, h),
						api.TupleRequest{Tuple: tupleAny(tp)})
					if w.Code != http.StatusOK {
						t.Fatalf("update %d: status %d, body %s", h, w.Code, w.Body.String())
					}
					mirror[h] = tp
				default: // delete
					h := randLiveHandle(rng, mirror)
					w := do(t, s, "DELETE", fmt.Sprintf("/v1/datasets/%s/tuples/%d", info.ID, h), nil)
					if w.Code != http.StatusOK {
						t.Fatalf("delete %d: status %d, body %s", h, w.Code, w.Body.String())
					}
					mirror[h] = nil
					live--
					// A deleted handle is a hole: every op on it answers 404.
					if w := do(t, s, "DELETE", fmt.Sprintf("/v1/datasets/%s/tuples/%d", info.ID, h), nil); w.Code != http.StatusNotFound {
						t.Fatalf("double delete %d: status %d, want 404", h, w.Code)
					}
				}
			}

			// From-scratch rebuild over the surviving rows in logical order.
			fresh := disc.NewRelation(rel.Schema)
			for _, tp := range mirror {
				if tp != nil {
					fresh.Append(tp)
				}
			}
			fs, err := s.Registry().Upload(context.Background(), "fresh", fresh,
				api.BuildParams{Eps: 0.25, Eta: 3, Kappa: 2, Index: kind})
			if err != nil {
				t.Fatalf("fresh rebuild: %v", err)
			}

			mutInfo := decode[SessionInfo](t, do(t, s, "GET", "/v1/datasets/"+info.ID, nil))
			freshInfo := fs.Info()
			if mutInfo.Tuples != freshInfo.Tuples || mutInfo.Inliers != freshInfo.Inliers || mutInfo.Outliers != freshInfo.Outliers {
				t.Fatalf("mutated split (n=%d in=%d out=%d) != rebuild (n=%d in=%d out=%d)",
					mutInfo.Tuples, mutInfo.Inliers, mutInfo.Outliers,
					freshInfo.Tuples, freshInfo.Inliers, freshInfo.Outliers)
			}
			if mutInfo.Inserted+mutInfo.Updated+mutInfo.Deleted != 45 {
				t.Fatalf("mutation counters %d+%d+%d, want 45 total",
					mutInfo.Inserted, mutInfo.Updated, mutInfo.Deleted)
			}
			if mutInfo.Redetect == 0 {
				t.Fatal("redetect_touched stayed zero across 45 mutations")
			}

			// Detect parity: every live row (member mode) plus fresh probes.
			var probes [][]any
			for _, tp := range mirror {
				if tp != nil {
					probes = append(probes, tupleAny(tp))
				}
			}
			dm := decode[api.DetectResponse](t, do(t, s, "POST", "/v1/datasets/"+info.ID+"/detect",
				api.DetectRequest{Tuples: probes, Member: true}))
			df := decode[api.DetectResponse](t, do(t, s, "POST", "/v1/datasets/"+fs.ID+"/detect",
				api.DetectRequest{Tuples: probes, Member: true}))
			if !reflect.DeepEqual(dm.Results, df.Results) {
				t.Fatalf("member detect diverged from rebuild:\nmutated: %+v\nrebuild: %+v", dm.Results, df.Results)
			}
			probes = probes[:0]
			for i := 0; i < 8; i++ {
				probes = append(probes, tupleAny(randTuple2D(rng, 1.4)))
			}
			dm = decode[api.DetectResponse](t, do(t, s, "POST", "/v1/datasets/"+info.ID+"/detect",
				api.DetectRequest{Tuples: probes}))
			df = decode[api.DetectResponse](t, do(t, s, "POST", "/v1/datasets/"+fs.ID+"/detect",
				api.DetectRequest{Tuples: probes}))
			if !reflect.DeepEqual(dm.Results, df.Results) {
				t.Fatalf("probe detect diverged from rebuild:\nmutated: %+v\nrebuild: %+v", dm.Results, df.Results)
			}

			// Save parity: repair the same outlier-ish probes on both
			// sessions and require identical adjustments (random float data
			// makes the min-cost adjustment unique, so iteration order — the
			// only thing the mutated and rebuilt sessions differ in — must
			// not show through).
			for i := 0; i < 3; i++ {
				probe := tupleAny(disc.Tuple{disc.Num(1.2 + 0.3*float64(i) + rng.Float64()/8), disc.Num(1.3 + rng.Float64()/8)})
				am := do(t, s, "POST", "/v1/datasets/"+info.ID+"/save", api.TupleRequest{Tuple: probe})
				af := do(t, s, "POST", "/v1/datasets/"+fs.ID+"/save", api.TupleRequest{Tuple: probe})
				if am.Code != http.StatusOK || af.Code != http.StatusOK {
					t.Fatalf("save probe %d: mutated %d, rebuild %d", i, am.Code, af.Code)
				}
				jm := decode[api.Adjustment](t, am)
				jf := decode[api.Adjustment](t, af)
				if !reflect.DeepEqual(jm, jf) {
					t.Fatalf("save probe %d diverged from rebuild:\nmutated: %+v\nrebuild: %+v", i, jm, jf)
				}
			}
		})
	}
}

// FuzzMutate drives applyMutation with arbitrary op streams and checks the
// incremental neighbor counts against a from-scratch detection after every
// stream. Each op is 3 bytes: opcode, then two coordinate/index bytes.
func FuzzMutate(f *testing.F) {
	f.Add([]byte{0, 10, 10, 0, 200, 200, 2, 3, 0, 1, 5, 9})
	f.Add([]byte{2, 0, 0, 2, 1, 0, 2, 2, 0, 0, 40, 40})
	f.Add([]byte{1, 0, 99, 1, 200, 1, 0, 0, 0, 2, 0, 0})
	f.Add(bytes.Repeat([]byte{2, 7, 0}, 30)) // delete churn
	f.Fuzz(func(t *testing.T, ops []byte) {
		r := NewRegistry(Config{BatchWindow: -1}.withDefaults())
		defer r.Close()
		s, err := r.Upload(context.Background(), "fuzz", testRelation(), testParams)
		if err != nil {
			t.Fatalf("upload: %v", err)
		}
		for i := 0; i+2 < len(ops) && i < 3*40; i += 3 {
			a, b := ops[i+1], ops[i+2]
			tp := disc.Tuple{disc.Num(float64(a) / 64), disc.Num(float64(b) / 64)}
			switch ops[i] % 3 {
			case 0:
				s.applyMutation(&mutation{op: "insert", tuple: tp})
			case 1:
				s.applyMutation(&mutation{op: "update", index: int(a), tuple: tp})
			case 2:
				s.applyMutation(&mutation{op: "delete", index: int(b)})
			}
		}

		s.stateMu.RLock()
		liveRel := disc.NewRelation(s.Rel.Schema)
		var gotCounts []int
		for _, phys := range s.logical {
			if phys < 0 {
				continue
			}
			liveRel.Append(s.Rel.Tuples[phys])
			gotCounts = append(gotCounts, s.Det.Counts[phys])
		}
		gotIn, gotOut := s.inliers, s.outliers
		s.stateMu.RUnlock()

		if liveRel.N() == 0 {
			if gotIn != 0 || gotOut != 0 {
				t.Fatalf("empty session reports %d inliers, %d outliers", gotIn, gotOut)
			}
			return
		}
		idx, err := disc.NewMutableIndex(liveRel, s.Cons.Eps, disc.KindBrute)
		if err != nil {
			t.Fatalf("reference index: %v", err)
		}
		det, err := disc.DetectWithIndex(context.Background(), liveRel, s.Cons, idx)
		if err != nil {
			t.Fatalf("reference detect: %v", err)
		}
		if gotIn != len(det.Inliers) || gotOut != len(det.Outliers) {
			t.Fatalf("incremental split (%d, %d) != reference (%d, %d)",
				gotIn, gotOut, len(det.Inliers), len(det.Outliers))
		}
		for i, want := range det.Counts {
			if gotCounts[i] != want {
				t.Fatalf("live row %d: incremental count %d, reference %d", i, gotCounts[i], want)
			}
		}
	})
}

// TestSweepSkipsBusySessions is the regression test for TTL eviction
// racing a saturated queue: a session with admitted-but-unanswered work
// must never be swept, no matter how stale its lastUsed is.
func TestSweepSkipsBusySessions(t *testing.T) {
	s := newTestServer(t, Config{BatchWindow: -1, Workers: 1, TTL: time.Minute, MaxQueue: 8})
	info := uploadSession(t, s)
	sess, ok := s.Registry().Get(info.ID)
	if !ok {
		t.Fatal("session vanished")
	}

	// Hold the state lock so dispatched saves block inside the batch,
	// keeping the queue saturated while the sweeps run.
	sess.stateMu.Lock()
	var reqs sync.WaitGroup
	codes := make(chan int, 4)
	for i := 0; i < 4; i++ {
		reqs.Add(1)
		go func() {
			defer reqs.Done()
			w := do(t, s, "POST", "/v1/datasets/"+info.ID+"/save",
				api.TupleRequest{Tuple: tupleAny(outlierTuple())})
			codes <- w.Code
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for !sess.batcher.busy() {
		if time.Now().After(deadline) {
			sess.stateMu.Unlock()
			t.Fatal("queue never became busy")
		}
		time.Sleep(time.Millisecond)
	}

	future := time.Now().Add(time.Hour) // every session looks idle-expired
	var sweeps sync.WaitGroup
	for i := 0; i < 4; i++ {
		sweeps.Add(1)
		go func() {
			defer sweeps.Done()
			s.Registry().Sweep(future)
		}()
	}
	sweeps.Wait()
	if _, ok := s.Registry().Get(info.ID); !ok {
		sess.stateMu.Unlock()
		t.Fatal("session with a saturated queue was swept")
	}

	sess.stateMu.Unlock()
	reqs.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("queued save answered %d after the sweep", code)
		}
	}

	// Drained and idle, the same sweep may now evict it.
	deadline = time.Now().Add(10 * time.Second)
	for sess.batcher.busy() {
		if time.Now().After(deadline) {
			t.Fatal("queue never drained")
		}
		time.Sleep(time.Millisecond)
	}
	s.Registry().Sweep(time.Now().Add(time.Hour))
	if _, ok := s.Registry().Get(info.ID); ok {
		t.Fatal("idle expired session survived the sweep")
	}
}

// TestSessionIDCollisionRegenerated forces newID to repeat itself and
// asserts register detects the duplicate and re-rolls instead of silently
// shadowing the existing session.
func TestSessionIDCollisionRegenerated(t *testing.T) {
	orig := newID
	defer func() { newID = orig }()
	calls := 0
	newID = func() string {
		calls++
		if calls <= 2 {
			return "feedfacefeedface" // both uploads draw the same id
		}
		return orig()
	}

	s := newTestServer(t, Config{BatchWindow: -1})
	a := uploadSession(t, s)
	b := uploadSession(t, s)
	if a.ID != "feedfacefeedface" {
		t.Fatalf("first session id = %q, want the forced id", a.ID)
	}
	if b.ID == a.ID {
		t.Fatalf("collision not regenerated: both sessions hold %q", a.ID)
	}
	for _, id := range []string{a.ID, b.ID} {
		if _, ok := s.Registry().Get(id); !ok {
			t.Fatalf("session %q lost after collision handling", id)
		}
	}
}

// TestByteBoundEvictionAfterGrowth asserts Session.Bytes moves with
// mutations: inserts grow the ledger until the registry's byte bound
// evicts the idle session, without any new session registering.
func TestByteBoundEvictionAfterGrowth(t *testing.T) {
	base := estimateBytes(testRelation())
	s := newTestServer(t, Config{BatchWindow: -1, MaxBytes: 2*base + base/2, MaxSessions: 10})
	a := uploadSession(t, s)
	b := uploadSession(t, s)

	bs, _ := s.Registry().Get(b.ID)
	rng := rand.New(rand.NewSource(7))
	grewPast := false
	for i := 0; i < 40 && !grewPast; i++ {
		w := do(t, s, "POST", "/v1/datasets/"+b.ID+"/tuples",
			api.TupleRequest{Tuple: tupleAny(randTuple2D(rng, 2))})
		if w.Code != http.StatusCreated {
			t.Fatalf("insert %d: status %d, body %s", i, w.Code, w.Body.String())
		}
		bs.mu.Lock()
		grewPast = bs.Bytes > base+base/2 // b alone now exceeds the headroom
		bs.mu.Unlock()
	}
	if !grewPast {
		t.Fatal("40 inserts never grew the session past the eviction point")
	}
	if _, ok := s.Registry().Get(a.ID); ok {
		t.Fatal("byte bound exceeded by mutation growth, but the idle session was not evicted")
	}
	if _, ok := s.Registry().Get(b.ID); !ok {
		t.Fatal("the growing session itself was evicted")
	}
}

// TestCompactionAfterDeleteChurn drives tombstones past the compaction
// threshold and asserts the rebuilt session keeps its logical handles,
// detection results, and honest index-build accounting.
func TestCompactionAfterDeleteChurn(t *testing.T) {
	origMin := compactMinDead
	compactMinDead = 4
	defer func() { compactMinDead = origMin }()

	s := newTestServer(t, Config{BatchWindow: -1})
	info := uploadSession(t, s) // 36 tuples, all inliers
	for h := 0; h < 20; h++ {
		w := do(t, s, "DELETE", fmt.Sprintf("/v1/datasets/%s/tuples/%d", info.ID, h), nil)
		if w.Code != http.StatusOK {
			t.Fatalf("delete %d: status %d, body %s", h, w.Code, w.Body.String())
		}
	}
	mi := decode[SessionInfo](t, do(t, s, "GET", "/v1/datasets/"+info.ID, nil))
	if mi.Compactions == 0 {
		t.Fatalf("20/36 deletes with threshold 4 never compacted: %+v", mi)
	}
	if mi.Tuples != 16 {
		t.Fatalf("live tuples = %d after 20 deletes, want 16", mi.Tuples)
	}
	if want := 2 + 2*mi.Compactions; mi.IndexBuilds != want {
		t.Fatalf("index builds = %d, want %d (2 + 2 per compaction)", mi.IndexBuilds, want)
	}

	// Handles survive compaction: deleted ones stay holes, live ones resolve.
	if w := do(t, s, "DELETE", fmt.Sprintf("/v1/datasets/%s/tuples/%d", info.ID, 3), nil); w.Code != http.StatusNotFound {
		t.Fatalf("deleted handle resolved after compaction: status %d", w.Code)
	}
	w := do(t, s, "PUT", fmt.Sprintf("/v1/datasets/%s/tuples/%d", info.ID, 30),
		api.TupleRequest{Tuple: []any{0.55, 0.55}})
	if w.Code != http.StatusOK {
		t.Fatalf("update of surviving handle: status %d, body %s", w.Code, w.Body.String())
	}

	// The compacted session still answers like a from-scratch build.
	rel := testRelation()
	fresh := disc.NewRelation(rel.Schema)
	for i := 20; i < 36; i++ {
		if i == 30 {
			fresh.Append(disc.Tuple{disc.Num(0.55), disc.Num(0.55)})
			continue
		}
		fresh.Append(rel.Tuples[i])
	}
	fs, err := s.Registry().Upload(context.Background(), "fresh", fresh, testParams)
	if err != nil {
		t.Fatalf("fresh rebuild: %v", err)
	}
	probes := [][]any{{0.4, 0.4}, {1.9, 1.9}, {25.0, 25.0}, {0.55, 0.55}}
	dm := decode[api.DetectResponse](t, do(t, s, "POST", "/v1/datasets/"+info.ID+"/detect",
		api.DetectRequest{Tuples: probes}))
	df := decode[api.DetectResponse](t, do(t, s, "POST", "/v1/datasets/"+fs.ID+"/detect",
		api.DetectRequest{Tuples: probes}))
	if !reflect.DeepEqual(dm.Results, df.Results) {
		t.Fatalf("post-compaction detect diverged:\ncompacted: %+v\nrebuild:   %+v", dm.Results, df.Results)
	}
}
