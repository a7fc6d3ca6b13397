package serve

import (
	"context"
	"errors"
	"fmt"

	disc "repro"
)

// errNoSuchRow marks a mutation addressing a logical row that does not
// exist or was already deleted; the handlers map it to 404.
var errNoSuchRow = errors.New("serve: no such row")

// compactMinDead is the tombstone floor below which a session never
// compacts; above it, compaction triggers once dead rows outnumber live
// ones (so the full rebuild is amortized against at least as many O(ball)
// mutations). A var so tests can force compaction on small datasets.
var compactMinDead = 256

// mutation is one admitted tuple mutation, riding the same batcher queue
// as saves so it serializes against in-flight detect/save work.
type mutation struct {
	op    string // "insert" | "update" | "delete"
	index int    // logical row for update/delete
	tuple disc.Tuple
}

// mutationResponse reports the incremental maintenance a mutation did.
type mutationResponse struct {
	Op string `json:"op"`
	// Index is the affected logical row: the new row's handle for
	// insert, the addressed row for update/delete. Handles are stable
	// across every mutation (deletes leave holes, updates keep the
	// handle), but not across a server restart after deletes — the
	// snapshot stores the live rows reindexed densely.
	Index int `json:"index"`
	// Tuples/Inliers/Outliers are the live totals after the mutation.
	Tuples   int `json:"tuples"`
	Inliers  int `json:"inliers"`
	Outliers int `json:"outliers"`
	// Flipped counts existing tuples whose inlier/outlier status crossed
	// η; Touched counts the tuples whose neighbor counts were
	// re-examined (the ε-balls of the old and new values).
	Flipped int `json:"flipped"`
	Touched int `json:"touched"`
	// Neighbors and Outlier describe the inserted/updated tuple itself
	// (absent for delete).
	Neighbors int  `json:"neighbors"`
	Outlier   bool `json:"outlier"`
}

// initMutableState derives the logical row mapping, the full→saver row
// mapping and the live split counts from a freshly built (or compacted)
// session. Counts and mappings are physical-row-indexed.
func (s *Session) initMutableState() {
	n := s.Rel.N()
	s.schema = s.Rel.Schema
	s.logical = make([]int, n)
	s.fullToSaver = make([]int, n)
	for i := range s.logical {
		s.logical[i] = i
		s.fullToSaver[i] = -1
	}
	for si, fi := range s.Det.Inliers {
		s.fullToSaver[fi] = si
	}
	s.inliers = len(s.Det.Inliers)
	s.outliers = len(s.Det.Outliers)
}

// applyMutation runs one mutation under the session's exclusive state
// lock: update the relation/kernel/indexes incrementally, re-examine
// only the tuples whose ε-neighborhoods the mutation touched, sync the
// saver's inlier set and η-radii, settle the byte ledger, and mark the
// snapshot dirty. It is called from the batcher's dispatch, so it
// serializes against queued detect/save work.
func (s *Session) applyMutation(m *mutation) (mutationResponse, error) {
	s.stateMu.Lock()
	resp := mutationResponse{Op: m.op, Index: m.index}
	var bytesDelta int64
	var refresh []disc.Tuple // δ_η refresh centers, applied after all membership changes
	var flips []int
	touched := 0

	switch m.op {
	case "insert":
		phys, nbr, f := s.insertRowLocked(m.tuple)
		s.logical = append(s.logical, phys)
		resp.Index = len(s.logical) - 1
		resp.Neighbors, resp.Outlier = nbr, s.Det.Counts[phys] < s.Cons.Eta
		flips = f
		touched = nbr + 1
		bytesDelta = tupleBytes(m.tuple)
		refresh = append(refresh, m.tuple)

	case "delete":
		phys, err := s.resolveRowLocked(m.index)
		if err != nil {
			s.stateMu.Unlock()
			return resp, err
		}
		old, ball, f := s.deleteRowLocked(phys)
		s.logical[m.index] = -1
		flips = f
		touched = ball + 1
		bytesDelta = -tupleBytes(old)
		refresh = append(refresh, old)

	case "update":
		phys, err := s.resolveRowLocked(m.index)
		if err != nil {
			s.stateMu.Unlock()
			return resp, err
		}
		old, ball, f1 := s.deleteRowLocked(phys)
		newPhys, nbr, f2 := s.insertRowLocked(m.tuple)
		s.logical[m.index] = newPhys
		resp.Neighbors, resp.Outlier = nbr, s.Det.Counts[newPhys] < s.Cons.Eta
		flips = append(f1, f2...)
		touched = ball + nbr + 2
		bytesDelta = tupleBytes(m.tuple) - tupleBytes(old)
		refresh = append(refresh, old, m.tuple)

	default:
		s.stateMu.Unlock()
		return resp, fmt.Errorf("serve: unknown mutation op %q", m.op)
	}

	// Saver η-radius maintenance: every location where inlier membership
	// changed (the mutated values and each flipped tuple) gets its
	// ε-ball's radii recomputed exactly. Radii farther than ε from every
	// change can drift, but never across the only threshold the saver
	// tests (δ_η ≤ ε − d, d ≥ 0), so save results stay rebuild-exact.
	for _, i := range flips {
		refresh = append(refresh, s.Rel.Tuples[i])
	}
	for _, c := range refresh {
		touched += s.Saver.RefreshRadii(c)
	}
	resp.Flipped, resp.Touched = len(flips), touched
	resp.Tuples, resp.Inliers, resp.Outliers = s.relMut.Live(), s.inliers, s.outliers

	if dead := s.relMut.DeadCount(); dead > compactMinDead && dead > s.relMut.Live() {
		s.compactLocked()
	}
	s.stateMu.Unlock()

	// Ledger and dirty marks, after the state lock drops (lock order:
	// stateMu → registry.mu → session.mu; noteBytes is safe either way
	// but the mutation is already visible, so don't hold readers off).
	if s.reg != nil && bytesDelta != 0 {
		s.reg.noteBytes(s, bytesDelta)
	}
	s.mu.Lock()
	switch m.op {
	case "insert":
		s.mstats.inserted++
	case "update":
		s.mstats.updated++
	case "delete":
		s.mstats.deleted++
	}
	s.mstats.redetectTouched += int64(touched)
	s.persisted = false // the on-disk snapshot no longer matches
	s.mu.Unlock()
	return resp, nil
}

// resolveRowLocked maps a logical row handle to its live physical row.
func (s *Session) resolveRowLocked(li int) (int, error) {
	if li < 0 || li >= len(s.logical) {
		return -1, fmt.Errorf("%w: index %d out of range [0,%d)", errNoSuchRow, li, len(s.logical))
	}
	phys := s.logical[li]
	if phys < 0 {
		return -1, fmt.Errorf("%w: row %d was deleted", errNoSuchRow, li)
	}
	return phys, nil
}

// insertRowLocked appends t through the kernel and index, seeds its
// neighbor count from its ε-ball, bumps the counts of the ball members,
// and syncs inlier membership (the new row's own and any flips).
// Counts follow the saturated Detection.Counts contract, min(|D_ε|, η):
// a member below η gets +1 and flips if it reaches η, a saturated member
// stays at η, and the new row stores min(|ball|, η). Returns the new
// physical row, its ε-ball size, and the flipped physical rows.
func (s *Session) insertRowLocked(t disc.Tuple) (phys, nbr int, flips []int) {
	eta := s.Cons.Eta
	// The ball is queried before the insert, so the new row's count
	// excludes itself — exactly the |r_ε(t)| detection uses.
	ball := s.relMut.Within(t, s.Cons.Eps, -1)
	phys = s.relMut.Insert(t)
	s.Det.Counts = append(s.Det.Counts, min(len(ball), eta))
	s.fullToSaver = append(s.fullToSaver, -1)
	for _, nb := range ball {
		j := nb.Idx
		if s.Det.Counts[j] >= eta {
			continue // saturated: still at least η
		}
		s.Det.Counts[j]++
		if s.Det.Counts[j] == eta { // crossed up
			flips = append(flips, j)
		}
	}
	if len(ball) >= eta {
		s.fullToSaver[phys] = s.Saver.InsertInlier(t)
		s.inliers++
	} else {
		s.outliers++
	}
	s.applyFlipsLocked(flips)
	return phys, len(ball), flips
}

// deleteRowLocked tombstones physical row phys, decrements its ball's
// neighbor counts, and syncs inlier membership. A member below η is an
// exact count: it drops by one and stays an outlier. A saturated member
// only knew "at least η", so it is recounted, capped at η, on the
// post-delete index and flips if the recount falls below η. Returns the
// removed tuple, its ball size, and the flipped physical rows.
func (s *Session) deleteRowLocked(phys int) (old disc.Tuple, ball int, flips []int) {
	eta := s.Cons.Eta
	old = s.Rel.Tuples[phys]
	nbs := s.relMut.Within(old, s.Cons.Eps, phys)
	s.relMut.Delete(phys)
	for _, nb := range nbs {
		j := nb.Idx
		if s.Det.Counts[j] < eta {
			s.Det.Counts[j]--
			continue
		}
		s.Det.Counts[j] = s.relMut.CountWithin(s.Rel.Tuples[j], s.Cons.Eps, j, eta)
		if s.Det.Counts[j] < eta { // crossed down
			flips = append(flips, j)
		}
	}
	if si := s.fullToSaver[phys]; si >= 0 {
		s.Saver.RemoveInlier(si)
		s.fullToSaver[phys] = -1
		s.inliers--
	} else {
		s.outliers--
	}
	s.applyFlipsLocked(flips)
	return old, len(nbs), flips
}

// applyFlipsLocked moves each flipped tuple across the inlier/outlier
// split, inserting into or tombstoning from the saver's inlier set.
func (s *Session) applyFlipsLocked(flips []int) {
	eta := s.Cons.Eta
	for _, j := range flips {
		if s.Det.Counts[j] >= eta {
			s.fullToSaver[j] = s.Saver.InsertInlier(s.Rel.Tuples[j])
			s.inliers++
			s.outliers--
		} else {
			s.Saver.RemoveInlier(s.fullToSaver[j])
			s.fullToSaver[j] = -1
			s.inliers--
			s.outliers++
		}
	}
}

// compactLocked rebuilds the session over only its live rows, in logical
// order: tombstoned storage in the relation, kernel and saver is
// reclaimed, the detection counts are remapped (not recomputed), and
// both indexes plus the saver's η-radius table are rebuilt from scratch.
// Logical row handles survive (holes stay holes). On any build error the
// old state is kept — queries keep working, compaction retries on a
// later mutation.
func (s *Session) compactLocked() {
	rel := disc.NewRelation(s.Rel.Schema)
	logical := make([]int, len(s.logical))
	counts := make([]int, 0, s.relMut.Live())
	for li, phys := range s.logical {
		if phys < 0 {
			logical[li] = -1
			continue
		}
		logical[li] = rel.N()
		counts = append(counts, s.Det.Counts[phys])
		rel.Append(s.Rel.Tuples[phys])
	}
	det := disc.RehydrateDetection(counts, s.Cons.Eta)
	if len(det.Inliers) == 0 {
		return // nothing to save against; keep serving from the old state
	}
	kind := s.relMut.Kind()
	relMut, err := disc.NewMutableIndex(rel, s.Cons.Eps, kind)
	if err != nil {
		return
	}
	saverMut, err := disc.NewMutableIndex(rel.Subset(det.Inliers), s.Cons.Eps, kind)
	if err != nil {
		return
	}
	saver, err := disc.NewSaverContext(context.Background(), saverMut.Rel(), s.Cons, disc.Options{
		Kappa:    s.Kappa,
		MaxNodes: s.Params.MaxNodes,
		Index:    saverMut,
		Logger:   s.reg.cfg.Logger,
	})
	if err != nil {
		return
	}
	s.Rel, s.Det, s.RelIdx, s.relMut, s.Saver = rel, det, relMut, relMut, saver
	s.initMutableState()
	s.logical = logical
	s.mu.Lock()
	s.mstats.compactions++
	s.indexBuilds += 2 // honest accounting: compaction rebuilds both indexes
	s.mu.Unlock()
}

// snapshotView returns the relation and neighbor counts to persist: the
// live rows in logical order. Sessions that never deleted a row persist
// their storage as-is (appends keep physical order == logical order);
// after deletes the view reindexes densely, which is also why logical
// row handles do not survive a restart.
func (s *Session) snapshotView() (*disc.Relation, []int) {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	if s.relMut.DeadCount() == 0 {
		return s.Rel, s.Det.Counts
	}
	rel := disc.NewRelation(s.Rel.Schema)
	counts := make([]int, 0, s.relMut.Live())
	for _, phys := range s.logical {
		if phys < 0 {
			continue
		}
		counts = append(counts, s.Det.Counts[phys])
		rel.Append(s.Rel.Tuples[phys])
	}
	return rel, counts
}
