package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
)

// Summary describes a sample of timings: its size, median, quartiles and
// the tail percentile the sample is large enough to support.
type Summary struct {
	N      int
	Median float64
	Q1, Q3 float64
	// TailQ is the highest of the standard tail percentiles (0.99, 0.95,
	// 0.9, 0.5) that has at least tailMinBeyond samples beyond it, and
	// Tail its value; TailQ is 0 when the sample is too small for any.
	TailQ float64
	Tail  float64
}

// tailMinBeyond is how many samples must lie beyond a percentile before
// the benchmark reports it: fewer make the tail one unlucky sample.
const tailMinBeyond = 10

// Percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; an empty
// sample yields NaN.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	return percentileSorted(s, q)
}

func percentileSorted(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// Supports reports whether a sample of n values has at least
// tailMinBeyond values beyond its q-quantile.
func Supports(n int, q float64) bool {
	return float64(n)*(1-q) >= tailMinBeyond
}

// TailPercentile returns the q-quantile of xs when the sample supports
// it (see Supports), and ok=false otherwise.
func TailPercentile(xs []float64, q float64) (v float64, ok bool) {
	if !Supports(len(xs), q) {
		return 0, false
	}
	return Percentile(xs, q), true
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	sm := Summary{N: len(xs)}
	if len(xs) == 0 {
		sm.Median, sm.Q1, sm.Q3 = math.NaN(), math.NaN(), math.NaN()
		return sm
	}
	s := sortedCopy(xs)
	sm.Median = percentileSorted(s, 0.5)
	sm.Q1 = percentileSorted(s, 0.25)
	sm.Q3 = percentileSorted(s, 0.75)
	for _, q := range []float64{0.99, 0.95, 0.9, 0.5} {
		if Supports(len(s), q) {
			sm.TailQ, sm.Tail = q, percentileSorted(s, q)
			break
		}
	}
	return sm
}

// String renders the summary for a note line.
func (s Summary) String() string {
	out := fmt.Sprintf("n=%d median=%.6g q1=%.6g q3=%.6g", s.N, s.Median, s.Q1, s.Q3)
	if s.TailQ > 0 {
		out += fmt.Sprintf(" p%g=%.6g", s.TailQ*100, s.Tail)
	}
	return out
}

// Median is the 0.5-quantile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 0.5) }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Outcome is the result of one operation as the error accounting sees it.
type Outcome struct {
	// Status is the HTTP status (0 for a transport error or an in-process
	// operation).
	Status int
	// Err is a transport or in-process failure.
	Err error
	// Partial marks a coordinator answer with lost chunks.
	Partial bool
}

// Failed reports whether the operation counts as failed: an error, a
// non-2xx status, or a partial answer (some of its tuples were lost).
func (o Outcome) Failed() bool {
	if o.Err != nil || o.Partial {
		return true
	}
	return o.Status != 0 && (o.Status < 200 || o.Status > 299)
}

// ErrorTally counts attempted and failed operations.
type ErrorTally struct {
	Attempted, Failed int
}

// Add records one operation.
func (t *ErrorTally) Add(o Outcome) {
	t.Attempted++
	if o.Failed() {
		t.Failed++
	}
}

// Frac is failed over attempted (0 when nothing was attempted).
func (t ErrorTally) Frac() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Failed) / float64(t.Attempted)
}

// AllocMeter measures heap bytes allocated across a phase of work, as the
// difference of runtime.MemStats.TotalAlloc readings, and divides them
// over the operations the phase completed.
type AllocMeter struct {
	start uint64
	bytes uint64
	ops   int
}

// readTotalAlloc is a var so tests can feed the meter fixed readings.
var readTotalAlloc = func() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// Start opens a measured phase.
func (m *AllocMeter) Start() { m.start = readTotalAlloc() }

// Stop closes the phase opened by Start, crediting its bytes to ops
// operations.
func (m *AllocMeter) Stop(ops int) {
	m.bytes += readTotalAlloc() - m.start
	m.ops += ops
}

// KiBPerOp is the allocated KiB per operation over every closed phase
// (NaN when no operation completed).
func (m *AllocMeter) KiBPerOp() float64 {
	if m.ops == 0 {
		return math.NaN()
	}
	return float64(m.bytes) / 1024 / float64(m.ops)
}
