// Command discbench runs the experiments reproducing the tables and
// figures of "On Saving Outliers for Better Clustering over Noisy Data"
// (SIGMOD 2021) and prints the same rows/series the paper reports.
//
// Usage:
//
//	discbench -list
//	discbench -exp table2 [-scale 0.5] [-seed 1] [-v]
//	discbench -exp all [-stats-json -]
//
// With -v, each experiment additionally prints the merged DISC search
// counters of its saves to stderr; -stats-json writes the same counters as
// a JSON map keyed by experiment id (see docs/OBSERVABILITY.md).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/viz"
)

func main() {
	os.Exit(run())
}

// run is main with an exit code, so the profile flushes installed below
// execute on every path — os.Exit would skip them.
func run() int {
	var (
		id        = flag.String("exp", "", "experiment id (table2..table5, fig4..fig10, or 'all')")
		list      = flag.Bool("list", false, "list the available experiments")
		scale     = flag.Float64("scale", 1, "multiply the per-experiment dataset scales (0 < scale ≤ ...)")
		seed      = flag.Int64("seed", 1, "random seed for data generation and algorithms")
		verb      = flag.Bool("v", false, "print progress while running")
		plot      = flag.Bool("plot", false, "additionally render each table's numeric columns as ASCII charts")
		format    = flag.String("format", "text", "output format: text, csv or markdown")
		timeout   = flag.Duration("timeout", 0, "wall-clock budget for the whole run (0 = none)")
		workers   = flag.Int("workers", 0, "per-method parallelism (0 = GOMAXPROCS)")
		cpuprof   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprof   = flag.String("memprofile", "", "write a pprof heap profile to this file when the run ends")
		statsJSON = flag.String("stats-json", "", "write per-experiment DISC search counters as a JSON map to this file (\"-\" = stderr)")
		trace     = flag.Bool("trace", false, "print a span timeline of the run (one span per experiment) to stderr at the end")
	)
	flag.Parse()

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return 0
	}
	if *id == "" {
		fmt.Fprintln(os.Stderr, "discbench: -exp or -list required (try -list)")
		return 2
	}

	var runs []exp.Experiment
	if *id == "all" {
		runs = exp.All()
	} else {
		e, ok := exp.Find(*id)
		if !ok {
			fmt.Fprintf(os.Stderr, "discbench: unknown experiment %q (try -list)\n", *id)
			return 2
		}
		runs = []exp.Experiment{e}
	}

	// Profiles flush on every return path, including error and interrupt
	// exits — a run killed by -timeout is exactly the one worth profiling.
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintf(os.Stderr, "discbench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "discbench: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprof != "" {
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				fmt.Fprintf(os.Stderr, "discbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "discbench: %v\n", err)
			}
		}()
	}

	// SIGINT/SIGTERM (and -timeout) cancel the context: the experiment in
	// flight stops at its next DISC save or counting pass, experiments
	// already printed stand, and the process exits nonzero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	cfg := exp.Config{SizeScale: *scale, Seed: *seed, Ctx: ctx, Workers: *workers}
	if *verb {
		cfg.Progress = os.Stderr
	}
	// One collector per experiment (expvar-style snapshot map keyed by
	// experiment id when -stats-json is set).
	type statsEntry struct {
		Runs  int64           `json:"runs"`
		Stats obs.SearchStats `json:"stats"`
	}
	allStats := map[string]statsEntry{}
	// With -trace, each experiment becomes one span on a shared timeline —
	// the same rendering the server uses for slow requests — so a long
	// -exp all run shows at a glance where the wall-clock went.
	tr := obs.NewTrace("discbench")
	runStart := time.Now()
	if *trace {
		defer func() { tr.WriteTimeline(os.Stderr) }()
	}
	for _, e := range runs {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "discbench: interrupted before %s: %v\n", e.ID, ctx.Err())
			return 1
		}
		collector := &obs.Collector{}
		cfg.Stats = collector
		start := time.Now()
		res, err := e.Run(cfg)
		tr.AddSpan(e.ID, start.Sub(runStart), time.Since(start))
		if err != nil {
			fmt.Fprintf(os.Stderr, "discbench: %s: %v\n", e.ID, err)
			return 1
		}
		if st, n := collector.Snapshot(); n > 0 {
			allStats[e.ID] = statsEntry{Runs: n, Stats: st}
			if *verb {
				fmt.Fprintf(os.Stderr, "discbench: %s: %d DISC runs: %s\n", e.ID, n, st.String())
			}
		}
		fmt.Printf("== %s — %s (%.1fs)\n\n", e.ID, e.Title, time.Since(start).Seconds())
		switch *format {
		case "csv":
			for i := range res.Tables {
				if err := res.Tables[i].FprintCSV(os.Stdout); err != nil {
					fmt.Fprintf(os.Stderr, "discbench: %v\n", err)
					return 1
				}
			}
		case "markdown", "md":
			for i := range res.Tables {
				res.Tables[i].FprintMarkdown(os.Stdout)
			}
		default:
			res.Fprint(os.Stdout)
		}
		if *plot {
			for _, tb := range res.Tables {
				viz.FprintChart(os.Stdout, "chart: "+tb.Title, tb.Header, tb.Rows, 32)
			}
		}
	}
	if *statsJSON != "" {
		b, err := json.MarshalIndent(allStats, "", "  ")
		if err == nil {
			b = append(b, '\n')
			if *statsJSON == "-" {
				_, err = os.Stderr.Write(b)
			} else {
				err = os.WriteFile(*statsJSON, b, 0o644)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "discbench: writing stats: %v\n", err)
			return 1
		}
	}
	// A budget that expired inside an experiment degrades its cells rather
	// than erroring; report the truncation so scripts can tell.
	if ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "discbench: run interrupted (%v); results above are partial\n", ctx.Err())
		return 1
	}
	return 0
}
