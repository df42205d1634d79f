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
		{conf, 0xcb3c99f395c577b5},
		{file, 0x69d325be037d2903},
	} {
		if got := EntryHash(c.e); got != c.want {
			t.Errorf("EntryHash(%+v) = %#x, want %#x", c.e, got, c.want)
		}
	}
	if got, want := Digest([]Entry{file, conf}), uint64(0x350fbfb19942a0b8); got != want {
		t.Errorf("Digest = %#x, want %#x", got, want)
	}
	if Digest([]Entry{conf, file}) != Digest([]Entry{file, conf}) {
		t.Error("Digest depends on order")
	}
	if Digest(nil) != 0 {
		t.Error("the empty set must digest to 0")
	}
	// The kind is length-prefixed: bytes moved between a kind and its
	// value make a different entry, and a different hash.
	if EntryHash(Entry{Kind: "a\x00", Value: "x"}) == EntryHash(Entry{Kind: "a", Value: "\x00x"}) {
		t.Error("EntryHash runs a kind's bytes into its value's")
	}
}
