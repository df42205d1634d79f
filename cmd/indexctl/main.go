// Command indexctl is an interactive shell over the distributed indexing
// library: create a network, publish articles, search them the way the
// paper's user would (automated or step-by-step interactive mode), and
// inspect storage/cache state. It reads commands from stdin, so it can be
// driven by scripts:
//
//	printf 'network 20\nload 100\nfind /article/author/last/Smith\n' | indexctl
//
// The `snapshot` subcommand inspects a durable node's data directory
// offline instead of starting the shell:
//
//	indexctl snapshot [-keys] [-tombstones] <data-dir>
//
// The `queue` subcommand inspects an ingest pipeline's durable spool
// offline — pending, published and quarantined documents:
//
//	indexctl queue [-dead] <spool-dir>
package main

import (
	"fmt"
	"os"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "snapshot" {
		if err := runSnapshot(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "indexctl:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "queue" {
		if err := runQueue(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "indexctl:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "indexctl:", err)
		os.Exit(1)
	}
}
