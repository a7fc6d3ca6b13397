package neighbors

import (
	"context"

	"repro/internal/data"
)

// WithContext wraps idx so every query first checks ctx: once the context
// is cancelled, Within/KNN return nil and CountWithin returns 0 instead of
// scanning. A long sequence of queries — the η-radius precompute, the
// detection pass, parameter determination — therefore stops within one
// query of cancellation without threading a flag through every loop.
//
// Empty results from a cancelled wrapper are indistinguishable from
// genuinely empty neighborhoods, so callers must pair the wrapper with a
// ctx.Err() check before trusting the aggregate (the par.ForEach pools do
// this by recording skipped items with the context's error).
//
// Background contexts (ctx.Done() == nil) return idx unchanged — the
// wrapper costs nothing when there is nothing to cancel.
func WithContext(ctx context.Context, idx Index) Index {
	if ctx == nil || ctx.Done() == nil {
		return idx
	}
	if c, ok := idx.(*ctxIndex); ok {
		idx = c.idx // re-wrapping replaces the old context
	}
	return &ctxIndex{done: ctx.Done(), idx: idx}
}

type ctxIndex struct {
	done <-chan struct{}
	idx  Index
}

func (c *ctxIndex) cancelled() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// Within implements Index.
func (c *ctxIndex) Within(q data.Tuple, eps float64, skip int) []Neighbor {
	if c.cancelled() {
		return nil
	}
	return c.idx.Within(q, eps, skip)
}

// WithinAppend implements WithinAppender; a cancelled context appends
// nothing.
func (c *ctxIndex) WithinAppend(dst []Neighbor, q data.Tuple, eps float64, skip int) []Neighbor {
	if c.cancelled() {
		return dst
	}
	return withinAppend(c.idx, dst, q, eps, skip)
}

// CountWithin implements Index.
func (c *ctxIndex) CountWithin(q data.Tuple, eps float64, skip, cap int) int {
	if c.cancelled() {
		return 0
	}
	return c.idx.CountWithin(q, eps, skip, cap)
}

// KNN implements Index.
func (c *ctxIndex) KNN(q data.Tuple, k, skip int) []Neighbor {
	if c.cancelled() {
		return nil
	}
	return c.idx.KNN(q, k, skip)
}

// KNNWithinAppend implements KNNWithinAppender; a cancelled context
// appends nothing.
func (c *ctxIndex) KNNWithinAppend(dst []Neighbor, q data.Tuple, k int, eps float64, skip int) []Neighbor {
	if c.cancelled() {
		return dst
	}
	return knnWithinAppend(c.idx, dst, q, k, eps, skip)
}

// Rel implements Index.
func (c *ctxIndex) Rel() *data.Relation { return c.idx.Rel() }
