package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	disc "repro"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/serve/api"
)

// Admission errors, mapped to HTTP statuses by the handlers.
var (
	// errQueueFull means the bounded admission queue had no room — the
	// client should back off (429 + Retry-After).
	errQueueFull = errors.New("serve: admission queue full")
	// errBatchTooLarge means one request carries more tuples than the
	// queue holds even when empty — no backoff can admit it, so the
	// client must split the batch (413, not retryable).
	errBatchTooLarge = errors.New("serve: batch larger than the admission queue")
	// errClosed means the session (or server) is draining — requests
	// already admitted will finish, new ones are refused (503).
	errClosed = errors.New("serve: draining, not accepting new work")
)

// saveReq is one admitted save: the tuple, the caller's deadline-carrying
// context, and a buffered reply channel the dispatcher always answers, so a
// caller that gave up never blocks the batch.
type saveReq struct {
	ctx   context.Context
	tuple disc.Tuple
	// mut, when non-nil, makes this request a tuple mutation instead of
	// a save: it rides the same queue so it serializes against admitted
	// detect/save work, and is answered through the same reply channel.
	mut *mutation
	res chan saveRes
	es  *obs.EndpointStats // the HTTP endpoint's counters (save vs repair vs tuples)
	// ep names the endpoint for the pprof labels the dispatch workers run
	// under, so CPU profiles attribute samples to (session, endpoint).
	ep  string
	enq time.Time
}

type saveRes struct {
	adj  disc.Adjustment
	mres api.MutateResponse
	err  error
}

// batcher is the per-session micro-batching executor. Incoming requests
// enter a bounded queue; a single dispatcher goroutine collects them into
// batches — the first request opens a batch window, everything arriving
// within it (up to maxBatch) rides along — and fans each batch out over the
// par worker pool. Batching exists because one save is short relative to
// scheduling overhead under concurrent load: coalescing turns k concurrent
// HTTP requests into one pool dispatch with k items, the same shape
// SaveAll's fan-out already optimizes for.
type batcher struct {
	session *Session
	queue   chan *saveReq
	window  time.Duration
	max     int
	workers int
	log     interface {
		Debug(msg string, args ...any)
	}

	// admitMu serializes admission against close: senders check capacity
	// and closed under the lock, so the buffered sends in admit never
	// block and never race a close(queue).
	admitMu  sync.Mutex
	closed   bool
	draining atomic.Bool
	done     chan struct{}
	batches  atomic.Int64
	// pending counts admitted requests not yet answered (queued or in
	// the current dispatch). The registry's sweep and LRU eviction skip
	// sessions with pending work — closing their batcher would cut off
	// requests the server already accepted.
	pending atomic.Int64
}

// busy reports whether the batcher holds admitted-but-unanswered work.
func (b *batcher) busy() bool { return b.pending.Load() > 0 }

func newBatcher(s *Session, cfg Config) *batcher {
	b := &batcher{
		session: s,
		queue:   make(chan *saveReq, cfg.MaxQueue),
		window:  cfg.BatchWindow,
		max:     cfg.MaxBatch,
		workers: cfg.Workers,
		log:     obs.Logger(cfg.Logger),
		done:    make(chan struct{}),
	}
	go b.run()
	return b
}

// admit enqueues all of reqs or none of them: partial admission of a batch
// repair would leave the client with half an answer and the queue with
// orphaned work. Admission is all-or-nothing under the lock, where the
// capacity check makes the channel sends non-blocking. A batch larger than
// the whole queue is refused as errBatchTooLarge rather than errQueueFull,
// because waiting for the queue to drain would never admit it.
func (b *batcher) admit(reqs ...*saveReq) error {
	b.admitMu.Lock()
	var err error
	switch {
	case b.closed:
		err = errClosed
	case len(reqs) > cap(b.queue):
		err = fmt.Errorf("%w (%d tuples, capacity %d): send at most %d per request",
			errBatchTooLarge, len(reqs), cap(b.queue), cap(b.queue))
	case len(b.queue)+len(reqs) > cap(b.queue):
		err = fmt.Errorf("%w (%d queued, capacity %d, %d arriving)",
			errQueueFull, len(b.queue), cap(b.queue), len(reqs))
	}
	if err != nil {
		b.admitMu.Unlock()
		for _, r := range reqs {
			r.es.Rejected.Add(1)
		}
		return err
	}
	b.pending.Add(int64(len(reqs)))
	for _, r := range reqs {
		r.enq = time.Now()
		b.queue <- r
		r.es.Admitted.Add(1)
	}
	b.admitMu.Unlock()
	return nil
}

// close stops admission and drains: everything already queued is still
// dispatched (counted as Drained), then the dispatcher exits. Idempotent;
// blocks until the drain completes.
func (b *batcher) close() {
	b.admitMu.Lock()
	already := b.closed
	if !already {
		b.closed = true
		b.draining.Store(true)
		close(b.queue)
	}
	b.admitMu.Unlock()
	<-b.done
}

// run is the dispatcher: collect one batch, dispatch it, repeat. A closed
// queue still yields its buffered requests before reporting closed, so the
// drain path reuses the normal loop.
func (b *batcher) run() {
	defer close(b.done)
	for {
		req, ok := <-b.queue
		if !ok {
			return
		}
		batch := b.collect(req)
		b.dispatch(batch)
	}
}

// collect gathers the batch opened by first: requests already queued and
// those arriving within the batch window join, up to the batch cap. A zero
// window still coalesces whatever is already buffered (non-blocking drain)
// — it disables waiting, not batching.
func (b *batcher) collect(first *saveReq) []*saveReq {
	batch := []*saveReq{first}
	if b.window <= 0 || b.draining.Load() {
		for len(batch) < b.max {
			select {
			case r, ok := <-b.queue:
				if !ok {
					return batch
				}
				batch = append(batch, r)
			default:
				return batch
			}
		}
		return batch
	}
	timer := time.NewTimer(b.window)
	defer timer.Stop()
	for len(batch) < b.max {
		select {
		case r, ok := <-b.queue:
			if !ok {
				return batch
			}
			batch = append(batch, r)
		case <-timer.C:
			return batch
		}
	}
	return batch
}

// dispatch fans the batch out over the worker pool. Each request runs under
// its own context — a deadline that expired while the request sat in the
// queue is answered immediately, spending no search work — while the pool
// itself runs under no batch-wide cancellation: a drain finishes what was
// admitted.
func (b *batcher) dispatch(batch []*saveReq) {
	b.batches.Add(1)
	b.session.observeBatchSize(len(batch))
	draining := b.draining.Load()
	if len(batch) > 1 {
		for _, r := range batch {
			r.es.Coalesced.Add(1)
		}
	}
	workers := b.workers
	if workers > len(batch) {
		workers = len(batch)
	}
	errs := par.ForEach(context.Background(), len(batch), workers, func(i int) error {
		r := batch[i]
		// The queue span closes the moment a worker picks the request up;
		// its length is the batching + scheduling cost the request paid.
		tr := obs.TraceFrom(r.ctx)
		wstart := time.Now()
		tr.Span("queue", r.enq)
		b.session.observeQueueWait(wstart.Sub(r.enq))
		defer tr.Span("dispatch", wstart)
		if draining {
			r.es.Drained.Add(1)
		}
		if err := r.ctx.Err(); err != nil {
			r.es.Expired.Add(1)
			r.res <- saveRes{err: fmt.Errorf("serve: request expired after %s in queue: %w",
				time.Since(r.enq).Round(time.Millisecond), err)}
			return nil
		}
		// pprof labels scope the worker's samples to (session, endpoint),
		// so a CPU profile of a busy server attributes search work to the
		// sessions that caused it.
		pprof.Do(r.ctx, pprof.Labels("session", b.session.ID, "endpoint", r.ep), func(ctx context.Context) {
			// Inside the worker func so an injected panic exercises the pool's
			// recover path, answering the caller like any other save panic.
			if err := fault.Inject(fault.BatchDispatch); err != nil {
				r.res <- saveRes{err: fmt.Errorf("serve: save failed: %w", err)}
				return
			}
			if r.mut != nil {
				mstart := time.Now()
				mres, err := b.session.applyMutation(r.mut)
				tr.Span("redetect", mstart)
				if err == nil {
					b.session.observeRedetect(mres.Touched)
				}
				r.res <- saveRes{mres: mres, err: err}
				return
			}
			// Saves hold the session state read-lock: a mutation in the same
			// batch (or a later one) takes it exclusively, so each save sees
			// a consistent snapshot of the mutable state.
			sstart := time.Now()
			b.session.stateMu.RLock()
			adj := b.session.Saver.SaveOne(ctx, r.tuple)
			b.session.stateMu.RUnlock()
			tr.Span("save", sstart)
			b.session.observeSave(time.Since(sstart), adj.Stats.Nodes)
			b.session.addStats(&adj.Stats, 1, 0)
			r.res <- saveRes{adj: adj}
		})
		return nil
	})
	// A panic inside one save is recovered by the pool; answer the caller
	// instead of leaving it waiting on the reply channel.
	for _, ie := range errs {
		batch[ie.Index].res <- saveRes{err: fmt.Errorf("serve: save failed: %w", ie.Err)}
	}
	b.pending.Add(-int64(len(batch)))
	if len(batch) > 1 {
		b.log.Debug("serve: batch dispatched", "session", b.session.ID,
			"size", len(batch), "draining", draining)
	}
}
