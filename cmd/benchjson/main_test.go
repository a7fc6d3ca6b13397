package main

import (
	"reflect"
	"testing"
)

// TestParseBench pins the fields taken from one result line, the core
// count (the -GOMAXPROCS suffix) among them.
func TestParseBench(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	cases := []struct {
		name string
		line string
		want Bench
	}{
		{
			name: "plain",
			line: "BenchmarkSaveSingle-4   \t   10000\t    118034 ns/op\t     560 B/op\t       1 allocs/op",
			want: Bench{Name: "BenchmarkSaveSingle", Procs: 4, Iters: 10000, NsPerOp: 118034,
				BytesPerOp: f(560), AllocsPerOp: f(1)},
		},
		{
			name: "sub-benchmark",
			line: "BenchmarkDetectExactLattice/n=64k-2         \t       3\t  56812345 ns/op",
			want: Bench{Name: "BenchmarkDetectExactLattice/n=64k", Procs: 2, Iters: 3, NsPerOp: 56812345},
		},
		{
			name: "custom metric",
			line: "BenchmarkDetectExactLattice/n=1M-16 \t 1\t 740000000 ns/op\t 0.00011 outlier_frac\t 4096 B/op\t 12 allocs/op",
			want: Bench{Name: "BenchmarkDetectExactLattice/n=1M", Procs: 16, Iters: 1, NsPerOp: 740000000,
				BytesPerOp: f(4096), AllocsPerOp: f(12), Metrics: map[string]float64{"outlier_frac": 0.00011}},
		},
		{
			name: "no suffix",
			line: "BenchmarkGridKNN \t  200000\t      7601 ns/op",
			want: Bench{Name: "BenchmarkGridKNN", Iters: 200000, NsPerOp: 7601},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := benchLine.FindStringSubmatch(tc.line)
			if m == nil {
				t.Fatalf("benchLine does not match %q", tc.line)
			}
			got, err := parseBench(m)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("parseBench(%q) =\n  %+v\nwant\n  %+v", tc.line, got, tc.want)
			}
		})
	}
}
