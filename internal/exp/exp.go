// Package exp is the experiment harness: one runner per table and figure
// of the paper's evaluation (§4), producing the same rows/series the paper
// reports. Each experiment returns structured tables so tests can assert
// on the shape of the results (who wins, by roughly what factor) and the
// discbench CLI can print them.
package exp

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/obs"
)

// Config tunes an experiment run.
type Config struct {
	// SizeScale multiplies each experiment's default dataset scale
	// (≤ 0 means 1). Large datasets (Letter, Flight, Spam) already run at
	// reduced default scales chosen per experiment; SizeScale shrinks or
	// grows them further, e.g. 0.2 for a quick smoke run.
	SizeScale float64
	// Seed drives dataset generation and every randomized algorithm.
	Seed int64
	// Verbose writers receive progress lines during long runs (nil
	// silences them).
	Progress io.Writer
	// Ctx, when non-nil, bounds the run: the DISC saves and neighbor
	// counting passes inside each experiment stop once it is cancelled
	// (the runner then reports the cancellation as its error).
	Ctx context.Context
	// Workers bounds the per-method parallelism (≤ 0: GOMAXPROCS).
	Workers int
	// Stats, when non-nil, accumulates the merged search counters of
	// every DISC save the experiment runs (discbench -stats-json).
	Stats *obs.Collector
}

// context returns the run's context, never nil.
func (c Config) context() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

func (c Config) scale(def float64) float64 {
	s := c.SizeScale
	if s <= 0 {
		s = 1
	}
	v := def * s
	if v > 1 {
		v = 1
	}
	return v
}

func (c Config) progressf(format string, args ...any) {
	if c.Progress != nil {
		fmt.Fprintf(c.Progress, format, args...)
	}
}

// Table is one printable result table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Cell returns the cell at (row, named column), or "" when absent.
func (t *Table) Cell(row int, col string) string {
	for i, h := range t.Header {
		if h == col {
			if row < len(t.Rows) && i < len(t.Rows[row]) {
				return t.Rows[row][i]
			}
		}
	}
	return ""
}

// FindRow returns the index of the first row whose first column equals
// key, or -1.
func (t *Table) FindRow(key string) int {
	for i, r := range t.Rows {
		if len(r) > 0 && r[0] == key {
			return i
		}
	}
	return -1
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%s\n", t.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
	for _, r := range t.Rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// Result is the outcome of one experiment.
type Result struct {
	Tables []Table
}

// Fprint renders every table.
func (r *Result) Fprint(w io.Writer) {
	for i := range r.Tables {
		r.Tables[i].Fprint(w)
	}
}

// Table returns the result table with the given title, or nil.
func (r *Result) Table(title string) *Table {
	for i := range r.Tables {
		if r.Tables[i].Title == title {
			return &r.Tables[i]
		}
	}
	return nil
}

// Experiment binds a paper artifact to its runner.
type Experiment struct {
	// ID is the artifact id: table2…table5, fig4…fig10.
	ID string
	// Title describes the artifact.
	Title string
	// Run executes the experiment.
	Run func(cfg Config) (*Result, error)
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	registry[e.ID] = e
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every experiment sorted by id.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// fmtF formats a score to 4 decimals, matching the paper's tables.
func fmtF(v float64) string { return fmt.Sprintf("%.4f", v) }

// fmtS formats seconds to 4 significant figures.
func fmtS(sec float64) string { return fmt.Sprintf("%.4g", sec) }

// FprintCSV writes the table as CSV rows (title line prefixed with '#').
func (t *Table) FprintCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"# " + t.Title}); err != nil {
		return err
	}
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// FprintMarkdown writes the table as GitHub-flavored markdown.
func (t *Table) FprintMarkdown(w io.Writer) {
	fmt.Fprintf(w, "### %s\n\n", t.Title)
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Header, " | "))
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(sep, " | "))
	for _, r := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(r, " | "))
	}
	fmt.Fprintln(w)
}
