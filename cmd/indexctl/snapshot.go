package main

import (
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"

	"dhtindex/internal/wire/durable"
)

// runSnapshot implements `indexctl snapshot [-keys] <data-dir>`: an
// offline, read-only inspection of a durable node's snapshot+WAL pair —
// what the node would recover on restart, without opening it for
// writing or repairing a torn tail.
func runSnapshot(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("snapshot", flag.ContinueOnError)
	fs.SetOutput(out)
	listKeys := fs.Bool("keys", false, "list every recovered key with its entry counts")
	fs.Usage = func() {
		fmt.Fprintln(out, "usage: indexctl snapshot [-keys] <data-dir>")
		fmt.Fprintln(out, "inspect a durable node's snapshot+WAL offline (read-only)")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("snapshot: expected exactly one data directory, got %d args", fs.NArg())
	}
	sum, err := durable.Inspect(fs.Arg(0))
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "data dir:     %s\n", sum.Dir)
	if sum.HasSnapshot {
		fmt.Fprintf(out, "snapshot:     %d keys, covers seq %d\n", sum.SnapshotKeys, sum.SnapshotSeq)
	} else {
		fmt.Fprintln(out, "snapshot:     none")
	}
	fmt.Fprintf(out, "wal:          %d records, base seq %d", sum.WALRecords, sum.WALBaseSeq)
	if sum.SkippedRecords > 0 {
		fmt.Fprintf(out, " (%d covered by the snapshot)", sum.SkippedRecords)
	}
	fmt.Fprintln(out)
	if sum.TornTail {
		fmt.Fprintln(out, "wal tail:     TORN — recovery would truncate to the last complete record")
	}
	if len(sum.TempFiles) > 0 {
		fmt.Fprintf(out, "temp files:   %s — a compaction was cut short; recovery ignores them and an open removes them\n", strings.Join(sum.TempFiles, " "))
	}
	fmt.Fprintf(out, "last seq:     %d\n", sum.LastSeq)
	fmt.Fprintf(out, "recovers to:  %d keys, %d entries\n", len(sum.Keys), sum.TotalEntries)

	if *listKeys {
		fmt.Fprintln(out)
		for _, ks := range sum.Keys {
			kinds := make([]string, 0, len(ks.Kinds))
			for kind, n := range ks.Kinds {
				kinds = append(kinds, fmt.Sprintf("%s=%d", kind, n))
			}
			sort.Strings(kinds)
			fmt.Fprintf(out, "  %s  %3d entries  [%s]\n", ks.Key.Short(), ks.Entries, strings.Join(kinds, " "))
		}
	}
	return nil
}
