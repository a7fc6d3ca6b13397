package main

import (
	"errors"
	"math"
	"testing"
)

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	} {
		if got := Percentile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Percentile(q=%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Error("Percentile sorted its input in place")
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Error("Percentile of an empty sample is not NaN")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{
		{999, 0.99, false}, {1000, 0.99, true},
		{199, 0.95, false}, {200, 0.95, true},
		{19, 0.5, false}, {20, 0.5, true},
	} {
		if got := Supports(tc.n, tc.q); got != tc.want {
			t.Errorf("Supports(%d, %v) = %v, want %v", tc.n, tc.q, got, tc.want)
		}
	}
	xs := make([]float64, 999)
	if _, ok := TailPercentile(xs, 0.99); ok {
		t.Error("p99 of 999 samples was reported")
	}
	xs = append(xs, 1)
	if _, ok := TailPercentile(xs, 0.99); !ok {
		t.Error("p99 of 1000 samples was not reported")
	}
}

func TestSummarizeCountsAndPicksTail(t *testing.T) {
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	sm := Summarize(xs)
	if sm.N != 300 {
		t.Errorf("N = %d, want 300", sm.N)
	}
	if sm.Median != 150.5 || sm.Q1 != 75.75 || sm.Q3 != 225.25 {
		t.Errorf("median/quartiles = %v/%v/%v, want 150.5/75.75/225.25", sm.Median, sm.Q1, sm.Q3)
	}
	// 300 samples support p95 (15 beyond) but not p99 (3 beyond).
	if sm.TailQ != 0.95 || math.Abs(sm.Tail-Percentile(xs, 0.95)) > 1e-12 {
		t.Errorf("tail = p%v %v, want p0.95", sm.TailQ, sm.Tail)
	}
	if small := Summarize([]float64{1, 2, 3}); small.TailQ != 0 || small.Median != 2 {
		t.Errorf("3 samples: tail q %v median %v, want no tail and median 2", small.TailQ, small.Median)
	}
	if Median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Error("median of an even sample is not the midpoint")
	}
}

func TestErrorFracCountsPartialAnswers(t *testing.T) {
	var tally ErrorTally
	for _, o := range []Outcome{
		{Status: 200},
		{Status: 201},
		{Status: 200, Partial: true}, // coordinator lost a chunk
		{Status: 503},
		{Err: errors.New("connection refused")},
		{}, // an in-process operation that succeeded
	} {
		tally.Add(o)
	}
	if tally.Attempted != 6 || tally.Failed != 3 {
		t.Fatalf("attempted %d failed %d, want 6 and 3", tally.Attempted, tally.Failed)
	}
	if got := tally.Frac(); got != 0.5 {
		t.Errorf("error_frac = %v, want 0.5", got)
	}
	if (ErrorTally{}).Frac() != 0 {
		t.Error("an empty tally has a nonzero error_frac")
	}
}

func TestAllocMeterDividesDeltasOverOps(t *testing.T) {
	readings := []uint64{1000, 1000 + 3*1024, 50000, 50000 + 5*1024}
	saved := readTotalAlloc
	defer func() { readTotalAlloc = saved }()
	readTotalAlloc = func() uint64 {
		r := readings[0]
		readings = readings[1:]
		return r
	}
	var m AllocMeter
	if !math.IsNaN(m.KiBPerOp()) {
		t.Error("a meter with no ops reports a number")
	}
	m.Start()
	m.Stop(1) // 3 KiB over 1 op
	m.Start()
	m.Stop(3) // 5 KiB over 3 ops; the gap between phases is not counted
	if got := m.KiBPerOp(); got != 2 {
		t.Errorf("KiB per op = %v, want (3+5)/4 = 2", got)
	}
}

func TestStatusKBParsesProcStatus(t *testing.T) {
	status := []byte("Name:\tperfbench\nVmHWM:\t  123456 kB\nVmRSS:\t   2048 kB\n")
	if v, ok := statusKB(status, "VmHWM:"); !ok || v != 123456 {
		t.Errorf("VmHWM = %v, %v; want 123456", v, ok)
	}
	if v, ok := statusKB(status, "VmRSS:"); !ok || v != 2048 {
		t.Errorf("VmRSS = %v, %v; want 2048", v, ok)
	}
	if _, ok := statusKB(status, "VmSwap:"); ok {
		t.Error("a missing field parsed")
	}
}

func TestRSSSamplerReportsAPeakPerTake(t *testing.T) {
	s, err := startRSSSampler()
	if err != nil {
		t.Skip("no /proc/self/status:", err)
	}
	defer s.close()
	if p := s.take(); p <= 0 {
		t.Errorf("first peak = %v MiB, want > 0", p)
	}
	if p := s.take(); p <= 0 {
		t.Errorf("second peak = %v MiB, want > 0", p)
	}
}
