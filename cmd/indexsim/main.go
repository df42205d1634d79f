// Command indexsim reproduces the evaluation of "Data Indexing in
// Peer-to-Peer DHT Networks" (§V): every figure and table, on the
// synthetic bibliographic database.
//
// Usage:
//
//	indexsim [-experiment all|fig7|fig8|fig9|fig10|storage|fig11|fig12|fig13|fig14|fig15|table1]
//	         [-nodes 500] [-articles 10000] [-queries 50000] [-seed 1]
//	         [-trace traces.jsonl] [-replay traces.jsonl]
//
// The default experiment "all" regenerates everything in paper order.
// -trace records every lookup the runs perform as JSONL LookupTrace
// records; -replay regenerates the figure-level metrics offline from
// such a file instead of running simulations (see docs/OBSERVABILITY.md).
package main

import (
	"flag"
	"fmt"
	"os"

	"dhtindex/internal/simreport"
	"dhtindex/internal/telemetry"
)

func main() {
	var cfg simreport.Config
	var tracePath, replayPath string
	flag.StringVar(&cfg.Experiment, "experiment", "all", "experiment id (all, fig7..fig15, storage, table1, substrate, availability, sensitivity, variance)")
	flag.IntVar(&cfg.Nodes, "nodes", 500, "number of DHT nodes")
	flag.IntVar(&cfg.Articles, "articles", 10000, "corpus size")
	flag.IntVar(&cfg.Queries, "queries", 50000, "workload size")
	flag.Int64Var(&cfg.Seed, "seed", 1, "deterministic seed")
	flag.StringVar(&cfg.Substrate, "substrate", "chord", "DHT substrate (chord|pastry)")
	flag.StringVar(&tracePath, "trace", "", "write every LookupTrace to this JSONL file")
	flag.StringVar(&replayPath, "replay", "", "regenerate metrics from a JSONL trace file instead of simulating")
	flag.Parse()

	if err := run(cfg, tracePath, replayPath); err != nil {
		fmt.Fprintln(os.Stderr, "indexsim:", err)
		os.Exit(1)
	}
}

func run(cfg simreport.Config, tracePath, replayPath string) error {
	if replayPath != "" {
		f, err := os.Open(replayPath)
		if err != nil {
			return err
		}
		defer f.Close()
		return simreport.Replay(os.Stdout, f)
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		sink := telemetry.NewJSONLSink(f)
		cfg.TraceSink = sink
		if err := simreport.Run(os.Stdout, cfg); err != nil {
			return err
		}
		if err := sink.Flush(); err != nil {
			return fmt.Errorf("flush traces: %w", err)
		}
		fmt.Fprintf(os.Stderr, "indexsim: traces written to %s\n", tracePath)
		return nil
	}
	return simreport.Run(os.Stdout, cfg)
}
