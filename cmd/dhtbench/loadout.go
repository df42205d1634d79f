package main

// The load subcommand: the open-loop overload run (soak.RunLoad). It
// drives a rated phase and a 4x overload phase with a flash crowd,
// prints the phase accounting plus the admission / retry / breaker
// totals, and is held to the SLO gate the report carries — p99 at rated
// load, proportional goodput under overload, admission engaged, bounded
// retry traffic, zero acked-write loss.

import (
	"fmt"
	"io"
	"time"

	"dhtindex/internal/soak"
)

func runLoad(args []string, out io.Writer) error {
	fs := newFlagSet("load", "drive a ring open-loop at its rated rate, then at 4x with a flash crowd, and hold it to the SLO gate", out)
	g := newGate(fs)
	g.reportFlag(fs)
	duration := fs.Duration("duration", 0, "total arrival window, split evenly across the rated and overload phases (0: the harness default, 6s)")
	if err := parse(fs, args); err != nil {
		return err
	}
	r, err := soak.RunLoad(soak.LoadConfig{
		Seed:             g.seed,
		RatedDuration:    *duration / 2,
		OverloadDuration: *duration / 2,
		Telemetry:        g.reg,
		Log:              logTo(out),
	})
	if err == nil {
		fmt.Fprintf(out, "\nload report\n")
		for _, p := range []soak.PhaseReport{r.Rated, r.Overload} {
			fmt.Fprintf(out, "  %-9s %6.0f/s target: offered=%d dropped=%d ok=%d shed=%d failed=%d goodput=%.1f/s shed-rate=%.2f p50=%v p99=%v\n",
				p.Name, p.TargetRPS, p.Offered, p.Dropped, p.OK, p.Shed, p.Failed,
				p.GoodputRPS, p.ShedRate, p.P50.Round(time.Millisecond), p.P99.Round(time.Millisecond))
		}
		a, rt, b := r.Admission, r.Retry, r.Breaker
		fmt.Fprintf(out, "  admission: %d admitted (%d waited), sheds: %d queue_full, %d queue_timeout, %d deadline, %d priority\n",
			a.Admitted, a.Waited, a.ShedQueueFull, a.ShedQueueTimeout, a.ShedDeadline, a.ShedPriority)
		fmt.Fprintf(out, "  retry:     %d calls, %d retries, %d overload NACKs, %d budget-exhausted, %d gave up\n",
			rt.Calls, rt.Retries, rt.Overloads, rt.BudgetExhausted, rt.GaveUp)
		fmt.Fprintf(out, "  breaker:   %d trips (%d on overload), %d fast-fails, %d probes, %d closes, %d open\n",
			b.Trips, b.OverloadTrips, b.FastFails, b.Probes, b.Closes, b.Open)
		fmt.Fprintf(out, "  writes:    %d acked, %d lost\n", r.AckedWrites, len(r.LostWrites))
	}
	return g.finish(out, r, r.Violations, err)
}
