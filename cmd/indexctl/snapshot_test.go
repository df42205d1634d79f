package main

import (
	"fmt"
	"strings"
	"testing"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/wire/durable"
)

// TestSnapshotListsTombstoneDigests: a removed entry survives in a data
// directory as its digest alone, and `snapshot -tombstones` lists it in
// hex under its key.
func TestSnapshotListsTombstoneDigests(t *testing.T) {
	dir := t.TempDir()
	s, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := keyspace.NewKey("/article[title=T]")
	gone, kept := overlay.Entry{Kind: "index", Value: "gone"}, overlay.Entry{Kind: "index", Value: "kept"}
	for _, e := range []overlay.Entry{gone, kept} {
		if _, err := s.Put(key, e); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Remove(key, gone); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := runSnapshot([]string{"-keys", "-tombstones", dir}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"recovers to:  1 keys, 1 entries, 1 tombstones",
		fmt.Sprintf("%s    1 entries    1 tombstones  [index=1]", key.Short()),
		fmt.Sprintf("%s  %016x  removed ", key.Short(), overlay.EntryHash(gone)),
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
