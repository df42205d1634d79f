package overlay

import "testing"

// TestEntryHashIsPinned: nodes and clients compare digests computed in
// different processes, so EntryHash must never depend on a seed or on
// anything but the entry; these values are what it returns everywhere.
func TestEntryHashIsPinned(t *testing.T) {
	conf := Entry{Kind: "index", Value: "/article[conf=SIGCOMM]"}
	file := Entry{Kind: "data", Value: "x.pdf"}
	for _, c := range []struct {
		e    Entry
		want uint64
	}{
		{Entry{}, 0x991216e4e1dae180},
		{conf, 0xcb18a3a4a6d0696e},
		{file, 0x9c09fdbd36fa81d8},
	} {
		if got := EntryHash(c.e); got != c.want {
			t.Errorf("EntryHash(%+v) = %#x, want %#x", c.e, got, c.want)
		}
	}
	if got, want := Digest([]Entry{file, conf}), uint64(0x6722a161ddcaeb46); got != want {
		t.Errorf("Digest = %#x, want %#x", got, want)
	}
	if Digest([]Entry{conf, file}) != Digest([]Entry{file, conf}) {
		t.Error("Digest depends on order")
	}
	if Digest(nil) != 0 {
		t.Error("the empty set must digest to 0")
	}
}
