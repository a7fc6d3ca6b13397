package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
)

// discOptions decorates a DISC Options value with the run's observability
// hooks: within-experiment progress lines on cfg.Progress (rate-limited by
// core's reporter, so a 100k-outlier save does not flood -v output) and a
// fan-out bound from cfg.Workers when the caller left it unset.
func (c Config) discOptions(label string, opts core.Options) core.Options {
	if opts.Workers == 0 {
		opts.Workers = c.Workers
	}
	if w := c.Progress; w != nil {
		opts.Progress = func(p obs.Progress) {
			fmt.Fprintf(w, "%s: saved %d/%d outliers\n", label, p.Done, p.Total)
		}
	}
	return opts
}

// recordStats accumulates a completed save's merged counters into
// cfg.Stats (a no-op when the collector is nil).
func (c Config) recordStats(res *core.SaveResult) {
	if res != nil {
		c.Stats.Add(&res.Stats)
	}
}
