// Command perfbench is the repository benchmark: it runs one workload of
// the DISC system end to end, checks that the outputs are correct, and
// prints its metrics. See README.md in this directory for the workloads,
// the metrics and how to run them.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are measured with tracing off, on every workload.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"repair_s", "s"},
	{"alloc_per_op_kib", "KiB"},
	{"peak_rss_mib", "MiB"},
}

// layerMetrics are measured by the traced run. A workload that does not
// exercise a layer reports 0 for it.
var layerMetrics = []metricDef{
	{"data.read_csv_s", "s"},
	{"data.write_csv_s", "s"},
	{"neighbors.build_s", "s"},
	{"neighbors.count_within_us", "us"},
	{"neighbors.knn_us", "us"},
	{"neighbors.range_queries", "count"},
	{"neighbors.knn_queries", "count"},
	{"neighbors.dist_evals", "count"},
	{"neighbors.dist_early_exits", "count"},
	{"neighbors.grid_fallbacks", "count"},
	{"neighbors.evals_per_query", "count"},
	{"core.detect_s", "s"},
	{"core.detect_us_per_tuple", "us"},
	{"core.saver_index_build_s", "s"},
	{"core.eta_radius_s", "s"},
	{"core.save_s", "s"},
	{"core.save_p50_us", "us"},
	{"core.save_p99_us", "us"},
	{"core.candidates", "count"},
	{"core.kappa_prefiltered", "count"},
	{"core.candidate_useful_frac", "ratio"},
	{"core.nodes", "count"},
	{"core.lb_prunes", "count"},
	{"core.cand_prunes", "count"},
	{"core.memo_hits", "count"},
	{"core.ub_witnesses", "count"},
	{"serve.handler_repair_p50_ms", "ms"},
	{"serve.handler_repair_p99_ms", "ms"},
	{"serve.handler_write_p50_ms", "ms"},
	{"serve.transport_p50_ms", "ms"},
	{"serve.queue_wait_p50_ms", "ms"},
	{"serve.batch_size_mean", "count"},
	{"serve.save_p50_ms", "ms"},
	{"serve.redetect_touched_per_write", "count"},
	{"serve.delta_merges", "count"},
	{"coord.handler_p50_ms", "ms"},
	{"coord.worker_handler_p50_ms", "ms"},
	{"coord.hop_p50_ms", "ms"},
	{"coord.chunks_per_req", "count"},
	{"coord.failovers", "count"},
	{"coord.chunk_failures", "count"},
	{"client.req_per_s", "1/s"},
	{"client.read_p50_ms", "ms"},
	{"client.read_p99_ms", "ms"},
	{"client.write_p50_ms", "ms"},
	{"client.write_p99_ms", "ms"},
	{"quality.outliers", "count"},
	{"quality.saved_frac", "ratio"},
	{"quality.mean_cost", "delta"},
	{"quality.error_frac", "ratio"},
	{"trace.unattributed_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds time.Duration
	traced  bool
	// traceDir receives the traced run's spans as JSON.
	traceDir string
}

// report is what a workload hands back to main.
type report struct {
	// e2e holds the end-to-end metrics (untraced runs).
	e2e map[string]float64
	// layer holds the per-layer metrics (traced runs).
	layer map[string]float64
	// notes are extra human-readable lines (sample counts, quality).
	notes  []string
	checks []check
	tally  ErrorTally
	rec    *Recorder
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records one correctness check; a nil err means it held.
type check struct {
	name string
	err  error
}

func (r *report) check(name string, err error) { r.checks = append(r.checks, check{name, err}) }

// workload is a runner and the GOMAXPROCS it runs at (0 leaves it at
// nproc).
type workload struct {
	run   func(context.Context, config) (*report, error)
	procs int
}

// batchProcs is the GOMAXPROCS of the batch workloads. On the 2-vCPU host
// the benchmark was sized on, the speed-up of a second core came and went
// for minutes at a time (two-goroutine passes sometimes took as long as
// one-goroutine passes), while one goroutine's speed held steady; see
// README.md, Steadiness.
const batchProcs = 1

// workloads maps each workload name to its runner.
var workloads = map[string]workload{
	"letter-repair":     {runLetterRepair, batchProcs},
	"lattice-neighbors": {runLatticeNeighbors, batchProcs},
	"serve-churn":       {runServeChurn, 0},
	"coord-repair":      {runCoordRepair, 0},
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: letter-repair, lattice-neighbors, serve-churn or coord-repair")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Float64("seconds", 15, "how long the timed phase runs")
		trace    = flag.String("trace", "0", "1 = traced run reporting per-layer metrics, 0 = untraced end-to-end run")
		traceDir = flag.String("trace-dir", ".", "directory the traced run writes its spans to")
	)
	flag.Parse()
	wl, ok := workloads[*workload]
	if !ok || (*trace != "0" && *trace != "1") || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	cfg := config{
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == "1",
		traceDir: *traceDir,
	}
	if wl.procs > 0 {
		runtime.GOMAXPROCS(wl.procs)
	}
	printHost(*workload, cfg)
	steal0, total0 := cpuSteal()
	rep, err := wl.run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if steal1, total1 := cpuSteal(); total1 > total0 {
		rep.note("host steal during the run: %.1f%% of CPU time", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	if cfg.traced && rep.rec != nil {
		path := filepath.Join(cfg.traceDir, fmt.Sprintf("trace-%s-seed%d.json", *workload, cfg.seed))
		if err := writeSpans(path, rep.rec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Printf("spans: %s\n", path)
	}
	if !printResult(rep, cfg.traced) {
		os.Exit(1)
	}
}

func writeSpans(path string, rec *Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := rec.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// printResult prints the human-readable report, then the result object as
// the last line of standard output. It reports whether every check held.
func printResult(rep *report, traced bool) bool {
	defs, vals := e2eMetrics, rep.e2e
	if traced {
		defs, vals = layerMetrics, rep.layer
	}
	metrics := make(map[string]any, len(defs))
	missing := []string{}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.name)
			v = 0
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
		fmt.Printf("metric %-34s %16.6g %s\n", d.name, v, d.unit)
	}
	if len(missing) > 0 && !traced {
		rep.check("every end-to-end metric measured", fmt.Errorf("no value for %s", strings.Join(missing, ", ")))
	}
	for _, n := range rep.notes {
		fmt.Println("note:", n)
	}
	correct := true
	for _, c := range rep.checks {
		if c.err != nil {
			correct = false
			fmt.Printf("check %s: FAILED: %v\n", c.name, c.err)
		} else {
			fmt.Printf("check %s: ok\n", c.name)
		}
	}
	attempted := rep.tally.Attempted
	if attempted < 1 {
		attempted = 1
		correct = false
		fmt.Println("check operations attempted: FAILED: none")
	}
	out, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": attempted,
		"failed":    rep.tally.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return false
	}
	fmt.Println(string(out))
	return correct
}

// host describes the machine and build a result was measured on.
type host struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Traced     bool   `json:"traced"`
	Seconds    string `json:"seconds"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func printHost(workload string, cfg config) {
	h := host{
		Workload: workload, Seed: cfg.seed, Traced: cfg.traced, Seconds: cfg.seconds.String(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: cpuModel(), GoVersion: runtime.Version(), Commit: commit(),
	}
	b, _ := json.Marshal(h) // a struct of strings and ints always marshals
	fmt.Println("host:", string(b))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, as the go command
// stamped it; a build outside a repository has none.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// cpuSteal reads the machine-wide steal and total CPU ticks from
// /proc/stat: time a virtual machine's CPUs were runnable but not running,
// which shows how much a noisy host slowed a run. Zeros when unreadable.
func cpuSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMiB is the process's peak resident set size so far (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	kb, ok := statusKB(b, "VmHWM:")
	if !ok {
		return math.NaN()
	}
	return kb / 1024
}

// statusKB parses one kB-valued field of /proc/self/status without
// allocating.
func statusKB(status []byte, field string) (float64, bool) {
	i := bytes.Index(status, []byte(field))
	if i < 0 {
		return 0, false
	}
	kb := 0.0
	digits := false
	for _, c := range status[i+len(field):] {
		switch {
		case c >= '0' && c <= '9':
			kb = kb*10 + float64(c-'0')
			digits = true
		case c == ' ' || c == '\t':
			if digits {
				return kb, true
			}
		default:
			return kb, digits
		}
	}
	return kb, digits
}

// rssSampler polls the resident set size so a repetition's own peak can
// be read; the process-wide peak (VmHWM) cannot be reset. It rereads one
// open /proc/self/status into a fixed buffer, so polling allocates nothing
// that would count against the workload's allocation metric.
type rssSampler struct {
	f    *os.File
	buf  []byte
	mu   sync.Mutex
	peak float64
	stop chan struct{}
	done chan struct{}
}

// rssEvery is the polling period: far shorter than a repetition, long
// enough that polling costs nothing measurable.
const rssEvery = 20 * time.Millisecond

func startRSSSampler() (*rssSampler, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return nil, fmt.Errorf("sampling RSS: %w", err)
	}
	s := &rssSampler{f: f, buf: make([]byte, 8192), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s, nil
}

func (s *rssSampler) sample() {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, _ := s.f.ReadAt(s.buf, 0) // io.EOF after a short read is expected
	if v, ok := statusKB(s.buf[:n], "VmRSS:"); ok {
		s.peak = max(s.peak, v/1024)
	}
}

// take returns the peak since the previous take and starts a new one.
func (s *rssSampler) take() float64 {
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.peak
	s.peak = 0
	return p
}

// close stops the poller, waits for it to exit and closes the file.
func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
	s.f.Close()
}

// settleHeap collects garbage and returns freed memory to the OS, so each
// repetition starts from the same heap, as a fresh process would, and the
// peak RSS does not depend on how many repetitions ran before it.
func settleHeap() {
	debug.FreeOSMemory()
}

// sortedKeys returns m's keys in order, for deterministic notes.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
