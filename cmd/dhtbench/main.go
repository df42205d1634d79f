// Command dhtbench checks that the overlay substrates and the live ring
// give the indexing layer what it assumes. The paper treats the DHT as a
// black box (§V-E: "we do not explicitly study the performance of the
// P2P substrate"); each subcommand runs one harness and is held to the
// gates its report carries (DESIGN.md §24):
//
//	dhtbench sweep   routing hops and key load against network size, then a churn test
//	dhtbench soak    the live-ring storm under a preset (churn|repair|restart|split-brain),
//	                 or the in-process indexed churn soak on another -substrate
//	dhtbench ingest  the continuous-ingest soak
//	dhtbench load    the open-loop overload run and its SLO gate
//	dhtbench matrix  the indexed churn soak on every substrate
//
// Every subcommand takes -seed, -metrics-out (write the telemetry
// snapshot) and -metrics-addr (serve it at /metrics after a pass,
// blocking); soak, ingest and load take -report (the whole report as
// JSON). Those files are written pass or fail. A run exits 0 when
// every gate held, 1 on a violation or a harness error, and 2 on a
// command line it refuses; `dhtbench <subcommand> -h` lists its flags.
// docs/OBSERVABILITY.md catalogs the metrics and the trace format.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"

	"dhtindex/internal/telemetry"
)

// subcommands maps each subcommand to its runner.
var subcommands = map[string]func(args []string, out io.Writer) error{
	"sweep":  runSweep,
	"soak":   runSoak,
	"ingest": runIngest,
	"load":   runLoad,
	"matrix": runMatrix,
}

const usage = `usage: dhtbench <sweep|soak|ingest|load|matrix> [flags]
run "dhtbench <subcommand> -h" for a subcommand's flags
`

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one command line and returns its exit status.
func run(args []string, out, errOut io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(errOut, usage)
		return 2
	}
	sub, ok := subcommands[args[0]]
	if !ok {
		fmt.Fprintf(errOut, "dhtbench: unknown subcommand %q\n%s", args[0], usage)
		return 2
	}
	switch err := sub(args[1:], out); {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2
	default:
		fmt.Fprintln(errOut, "dhtbench:", err)
		return 1
	}
}

// errUsage marks a command line a subcommand refused. Its flag set has
// already printed why, and the usage.
var errUsage = errors.New("usage")

// newFlagSet returns a subcommand's flag set, printing to out.
func newFlagSet(name, synopsis string, out io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(out)
	fs.Usage = func() {
		fmt.Fprintf(out, "usage: dhtbench %s [flags]\n%s\n", name, synopsis)
		fs.PrintDefaults()
	}
	return fs
}

// parse parses a subcommand's flags; a bad flag or a stray argument is
// errUsage.
func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	if fs.NArg() > 0 {
		return usagef(fs, "unexpected argument %q", fs.Arg(0))
	}
	return nil
}

// usagef refuses a command line the way the flag package refuses a bad
// flag: the reason, then the usage.
func usagef(fs *flag.FlagSet, format string, args ...any) error {
	fmt.Fprintf(fs.Output(), format+"\n", args...)
	fs.Usage()
	return errUsage
}

// onlyWith refuses any of the named flags set on the command line: the
// mode the other flags chose would ignore them.
func onlyWith(fs *flag.FlagSet, mode string, names ...string) error {
	var set []string
	fs.Visit(func(f *flag.Flag) {
		if slices.Contains(names, f.Name) {
			set = append(set, "-"+f.Name)
		}
	})
	if len(set) > 0 {
		return usagef(fs, "%s applies only to %s", strings.Join(set, ", "), mode)
	}
	return nil
}

// gate is what the subcommands share: the seed, the registry every layer
// reports into, and where the report and the snapshot go.
type gate struct {
	seed        int64
	reg         *telemetry.Registry
	report      string
	metricsOut  string
	metricsAddr string
}

// newGate registers the flags every subcommand takes.
func newGate(fs *flag.FlagSet) *gate {
	g := &gate{reg: telemetry.NewRegistry()}
	fs.Int64Var(&g.seed, "seed", 1, "deterministic seed")
	fs.StringVar(&g.metricsOut, "metrics-out", "", "write the telemetry snapshot to this file, pass or fail")
	fs.StringVar(&g.metricsAddr, "metrics-addr", "", "after a pass, serve the telemetry snapshot at /metrics on this address (e.g. :8080); blocks")
	return g
}

// reportFlag registers -report.
func (g *gate) reportFlag(fs *flag.FlagSet) {
	fs.StringVar(&g.report, "report", "", "write the whole report as JSON to this file, pass or fail")
}

// finish is every subcommand's tail. It prints the violations the report
// carries and writes -report and -metrics-out whatever happened — a
// failed run is the one worth inspecting — then fails on a harness error
// or any violation. A passing run goes on to serve -metrics-addr.
func (g *gate) finish(out io.Writer, report any, violations []string, err error) error {
	for _, v := range violations {
		fmt.Fprintln(out, "violation:", v)
	}
	if g.report != "" {
		if werr := writeJSON(g.report, report); werr != nil {
			err = errors.Join(err, fmt.Errorf("write report: %w", werr))
		} else {
			fmt.Fprintf(out, "report written to %s\n", g.report)
		}
	}
	if g.metricsOut != "" {
		if werr := writeMetrics(g.reg, g.metricsOut); werr != nil {
			err = errors.Join(err, fmt.Errorf("write metrics snapshot: %w", werr))
		} else {
			fmt.Fprintf(out, "metrics snapshot written to %s\n", g.metricsOut)
		}
	}
	if err != nil {
		return err
	}
	if len(violations) > 0 {
		return fmt.Errorf("%d gate violations", len(violations))
	}
	if g.metricsAddr == "" {
		return nil
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", g.reg)
	fmt.Fprintf(out, "serving metrics on http://%s/metrics (Ctrl-C to stop)\n", g.metricsAddr)
	return http.ListenAndServe(g.metricsAddr, mux)
}

// writeMetrics writes the registry's text snapshot to path.
func writeMetrics(reg *telemetry.Registry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteText(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeJSON writes v to path as indented JSON.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// logTo turns a harness's progress lines into lines on out.
func logTo(out io.Writer) func(format string, args ...any) {
	return func(format string, args ...any) {
		fmt.Fprintf(out, format+"\n", args...)
	}
}
