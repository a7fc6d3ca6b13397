// Command benchjson converts `go test -bench` output on stdin into a
// versioned JSON snapshot, so the repository can commit a perf trajectory
// (BENCH_<pr>.json) alongside the code it measures.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson -out BENCH_2.json -key after
//
// The file holds one snapshot per key (conventionally "before" and
// "after"); an existing file is merged, not overwritten, so the before
// numbers captured at the start of a change survive the final run. Stdin
// is echoed to stdout, keeping the human-readable table visible when the
// command is used in a pipe.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Bench is one parsed benchmark result line.
type Bench struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped.
	Name string `json:"name"`
	// Procs is the GOMAXPROCS the benchmark ran with, taken from that
	// suffix; 0 when the line had none (go test omits it at GOMAXPROCS=1).
	Procs int `json:"procs,omitempty"`
	// Pkg is the package the benchmark ran in (from the pkg: header).
	Pkg string `json:"pkg,omitempty"`
	// Iters is the b.N the reported averages were taken over.
	Iters int64 `json:"iters"`
	// NsPerOp, BytesPerOp and AllocsPerOp mirror the standard columns;
	// the latter two are present only under -benchmem.
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds custom b.ReportMetric units (nodes, saved, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Run is one snapshot of the whole suite.
type Run struct {
	Goos       string  `json:"goos,omitempty"`
	Goarch     string  `json:"goarch,omitempty"`
	CPU        string  `json:"cpu,omitempty"`
	Benchmarks []Bench `json:"benchmarks"`
}

// File is the committed artifact: snapshots keyed by label.
type File struct {
	Schema string          `json:"schema"`
	Note   string          `json:"note,omitempty"`
	Runs   map[string]*Run `json:"runs"`
}

// benchLine splits a result line into name, optional -GOMAXPROCS suffix,
// iteration count and the "<value> <unit>" tail.
var benchLine = regexp.MustCompile(`^(Benchmark[^\s]*?)(?:-(\d+))?\s+(\d+)\s+(.*)$`)

func main() {
	var (
		out  = flag.String("out", "", "JSON file to merge the snapshot into (required)")
		key  = flag.String("key", "after", "snapshot label inside the file (e.g. before, after)")
		note = flag.String("note", "", "optional note stored at the top level of the file")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -out is required")
		os.Exit(2)
	}

	run := &Run{}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // tee through
		switch {
		case strings.HasPrefix(line, "goos: "):
			run.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			run.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			run.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg := strings.TrimPrefix(line, "pkg: ")
			// Remember for subsequent benchmark lines.
			curPkg = pkg
		default:
			if m := benchLine.FindStringSubmatch(line); m != nil {
				b, err := parseBench(m)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchjson: skipping %q: %v\n", line, err)
					continue
				}
				b.Pkg = curPkg
				run.Benchmarks = append(run.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: reading stdin: %v\n", err)
		os.Exit(1)
	}
	if len(run.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found on stdin; file left untouched")
		os.Exit(1)
	}

	f := &File{Schema: "disc-bench/v1", Runs: map[string]*Run{}}
	if raw, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(raw, f); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s exists but is not a bench file: %v\n", *out, err)
			os.Exit(1)
		}
	}
	if f.Runs == nil {
		f.Runs = map[string]*Run{}
	}
	if *note != "" {
		f.Note = *note
	}
	f.Runs[*key] = run

	enc, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s under %q\n", len(run.Benchmarks), *out, *key)
}

var curPkg string

func parseBench(m []string) (Bench, error) {
	iters, err := strconv.ParseInt(m[3], 10, 64)
	if err != nil {
		return Bench{}, err
	}
	b := Bench{Name: m[1], Iters: iters}
	if m[2] != "" {
		if b.Procs, err = strconv.Atoi(m[2]); err != nil {
			return Bench{}, err
		}
	}
	// The tail is a sequence of "<value> <unit>" pairs separated by tabs.
	fields := strings.Fields(m[4])
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Bench{}, fmt.Errorf("bad value %q", fields[i])
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = &v
		case "allocs/op":
			b.AllocsPerOp = &v
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b, nil
}
