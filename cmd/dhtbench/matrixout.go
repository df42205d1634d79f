package main

// The matrix subcommand: the cross-substrate comparison. It runs the
// in-process indexed churn soak (soak.RunSubstrate) on Chord and Pastry
// with one shared configuration, prints the comparison table, and fails
// if either substrate loses an acked article.

import (
	"fmt"
	"io"

	"dhtindex/internal/soak"
)

// matrixSubstrates is the comparison set, in report order.
var matrixSubstrates = []string{"chord", "pastry"}

func runMatrix(args []string, out io.Writer) error {
	fs := newFlagSet("matrix", "run the indexed churn soak on every substrate and compare them", out)
	g := newGate(fs)
	nodes := fs.Int("nodes", 0, "overlay size per substrate (0: the harness default)")
	ops := fs.Int("ops", 0, "churn-storm operations per substrate (0: the harness default)")
	if err := parse(fs, args); err != nil {
		return err
	}
	var violations []string
	rows := make([]soak.SubstrateReport, 0, len(matrixSubstrates))
	for _, substrate := range matrixSubstrates {
		rep, err := soak.RunSubstrate(soak.SubstrateConfig{
			Substrate: substrate, Nodes: *nodes, Ops: *ops, Seed: g.seed, Telemetry: g.reg,
		})
		if err != nil {
			return g.finish(out, nil, violations, fmt.Errorf("matrix %s: %w", substrate, err))
		}
		rows = append(rows, rep)
		violations = append(violations, rep.Violations...)
	}

	fmt.Fprintf(out, "substrate matrix (seed %d: %d nodes, %d ops, %d queries)\n",
		g.seed, rows[0].Nodes, rows[0].Ops, rows[0].Queries)
	fmt.Fprintf(out, "%-10s %6s %6s %7s %8s %9s %10s %10s %11s %6s\n",
		"substrate", "nodes", "churn", "queries", "found", "failures",
		"mean hops", "p99 query", "maint items", "lost")
	for _, r := range rows {
		fmt.Fprintf(out, "%-10s %6d %6d %7d %8d %9d %10.2f %9.0fµs %11d %6d\n",
			r.Substrate, r.Nodes, r.Joins+r.Leaves, r.Queries, r.Found,
			r.QueryFailures, r.MeanLookupHops, r.P99QueryMicros,
			r.MaintenanceItems, r.LostArticles)
	}
	return g.finish(out, nil, violations, nil)
}
