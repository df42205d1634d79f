package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/wire"
)

// On-disk format, shared by the WAL and the snapshot.
//
// Both files start with a 16-byte header: an 8-byte magic string
// followed by a uint64 little-endian sequence number. For the snapshot
// that number is the last operation the snapshot covers; for the WAL it
// is the sequence number BEFORE the file's first record, so record i
// (0-based) carries sequence base+i+1 implicitly — no per-record
// sequence field is needed because records are strictly ordered.
//
// After the header come length-prefixed, checksummed frames:
//
//	uint32 LE payload length | uint32 LE CRC-32 (IEEE) of payload | payload
//
// A frame's payload is one record: an op byte, the 20-byte ring key,
// then the op's body. An entry list is a uvarint count followed by
// uvarint-length-prefixed kind and value strings per entry (recPut adds
// a single entry, recReplace sets a key's whole entry set — zero
// entries means delete). A tombstone list is a uvarint count followed by
// 16 bytes per tombstone: the removed entry's overlay.EntryHash and its
// At, each a uint64 little-endian (recTombDigests; recReplaceDigests
// carries an entry list and then a tombstone list). The ops written
// before tombstones were digests, recTomb and recReplaceFull, carry each
// tombstone's entry strings instead; replay still reads them, and keeps
// the digest of each (DESIGN.md §46).
//
// Replay reads frames until end of file. A short frame, an impossible
// length, or a checksum mismatch marks the frame — and therefore
// everything after it — torn: the WAL is truncated back to the last
// complete record and the store opens cleanly (the write behind the
// torn frame was never acked, so dropping it loses nothing the client
// was promised). The snapshot is written to a temp file and renamed
// into place, so a torn snapshot means real corruption and fails Open.

const (
	walMagic  = "DHTWAL1\n"
	snapMagic = "DHTSNP1\n"

	headerSize = 16

	// recPut adds one entry to a key's set.
	recPut = 1
	// recReplace sets a key's whole entry set (empty = delete) and
	// clears its tombstones. Legacy: written before deletion records
	// existed; still replayed so old data directories open cleanly.
	recReplace = 2
	// recTomb is recTombDigests with each tombstone's entry whole.
	// Legacy: replayed, never written.
	recTomb = 3
	// recReplaceFull is recReplaceDigests with each tombstone's entry
	// whole. Legacy: replayed, never written.
	recReplaceFull = 4
	// recTombGC drops every tombstone older than the payload's cutoff
	// (the key field is unused), so a collection survives restart.
	recTombGC = 5
	// recTombDigests merges tombstones into a key: each removes the live
	// entries whose hash it names and is recorded keeping the latest At.
	// Removes and Entomb log this.
	recTombDigests = 6
	// recReplaceDigests sets a key's whole entry set AND tombstone set
	// at once (repair-sync ship semantics; also the snapshot record).
	recReplaceDigests = 7

	// maxRecordSize bounds a frame payload; anything larger is treated
	// as a torn length prefix rather than an allocation request.
	maxRecordSize = 16 << 20

	// minEntrySize, tombSize and minLegacyTombSize are the least an
	// encoded entry (its two length prefixes), tombstone (digest and At)
	// and legacy tombstone (an entry plus At) take. A declared count is
	// trusted — and allocated for — only if the bytes behind it could pay
	// for that many.
	minEntrySize      = 2
	tombSize          = 16
	minLegacyTombSize = minEntrySize + 8
)

// errTorn marks a torn or corrupt frame found during replay.
var errTorn = errors.New("durable: torn record")

// record is one decoded WAL/snapshot frame.
type record struct {
	op      byte
	key     keyspace.Key
	entries []overlay.Entry
	tombs   []wire.Tombstone
	// gcBefore is the recTombGC cutoff (Unix nanoseconds).
	gcBefore int64
}

// appendHeader appends a 16-byte magic+sequence file header to b.
func appendHeader(b []byte, magic string, seq uint64) []byte {
	b = append(b, magic...)
	return binary.LittleEndian.AppendUint64(b, seq)
}

// parseHeader validates a file's 16-byte header and returns its
// sequence number. A short or mismatched header returns errTorn so
// callers can decide between reset-and-continue (WAL) and fail
// (snapshot).
func parseHeader(b []byte, magic string) (uint64, error) {
	if len(b) < headerSize || string(b[:8]) != magic {
		return 0, errTorn
	}
	return binary.LittleEndian.Uint64(b[8:headerSize]), nil
}

// appendFrame appends rec to b as one complete frame (length prefix,
// checksum, payload). The payload is encoded in place behind a reserved
// prefix that is filled in last, so a b with room allocates nothing.
func appendFrame(b []byte, rec record) []byte {
	start := len(b)
	b = binary.LittleEndian.AppendUint64(b, 0) // length and checksum, once the payload is known
	b = append(b, rec.op)
	b = append(b, rec.key[:]...)
	switch rec.op {
	case recTombGC:
		b = binary.LittleEndian.AppendUint64(b, uint64(rec.gcBefore))
	case recTombDigests:
		b = appendTombs(b, rec.tombs)
	case recReplaceDigests:
		b = appendEntries(b, rec.entries)
		b = appendTombs(b, rec.tombs)
	case recPut, recReplace:
		b = appendEntries(b, rec.entries)
	default:
		panic(fmt.Sprintf("durable: no encoding for record op %d", rec.op))
	}
	payload := b[start+8:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.ChecksumIEEE(payload))
	return b
}

// appendEntries encodes a uvarint count followed by the entries.
func appendEntries(payload []byte, entries []overlay.Entry) []byte {
	payload = binary.AppendUvarint(payload, uint64(len(entries)))
	for _, e := range entries {
		payload = binary.AppendUvarint(payload, uint64(len(e.Kind)))
		payload = append(payload, e.Kind...)
		payload = binary.AppendUvarint(payload, uint64(len(e.Value)))
		payload = append(payload, e.Value...)
	}
	return payload
}

// appendTombs encodes a uvarint count followed by the tombstones, each
// its digest and At as 8-byte little-endian words.
func appendTombs(payload []byte, tombs []wire.Tombstone) []byte {
	payload = binary.AppendUvarint(payload, uint64(len(tombs)))
	for _, t := range tombs {
		payload = binary.LittleEndian.AppendUint64(payload, t.Hash)
		payload = binary.LittleEndian.AppendUint64(payload, uint64(t.At))
	}
	return payload
}

// parseFrame decodes the frame starting at b[0], returning the record
// and the number of bytes consumed. len(b) == 0 signals a clean end;
// any malformed or partial frame returns errTorn.
func parseFrame(b []byte) (record, int, error) {
	if len(b) < 8 {
		return record{}, 0, errTorn
	}
	length := binary.LittleEndian.Uint32(b[0:])
	sum := binary.LittleEndian.Uint32(b[4:])
	if length == 0 || length > maxRecordSize || uint32(len(b)-8) < length {
		return record{}, 0, errTorn
	}
	payload := b[8 : 8+length]
	if crc32.ChecksumIEEE(payload) != sum {
		return record{}, 0, errTorn
	}
	rec, err := decodePayload(payload)
	if err != nil {
		return record{}, 0, err
	}
	return rec, 8 + int(length), nil
}

// decodePayload parses one frame payload into a record.
func decodePayload(payload []byte) (record, error) {
	if len(payload) < 1+keyspace.Size {
		return record{}, errTorn
	}
	var rec record
	rec.op = payload[0]
	copy(rec.key[:], payload[1:1+keyspace.Size])
	rest := payload[1+keyspace.Size:]
	var err error
	switch rec.op {
	case recTombGC:
		if len(rest) != 8 {
			return record{}, errTorn
		}
		rec.gcBefore = int64(binary.LittleEndian.Uint64(rest))
		rest = nil
	case recTombDigests:
		rec.tombs, rest, err = readTombs(rest)
	case recReplaceDigests:
		rec.entries, rest, err = readEntries(rest)
		if err == nil {
			rec.tombs, rest, err = readTombs(rest)
		}
	case recTomb:
		rec.tombs, rest, err = readLegacyTombs(rest)
	case recReplaceFull:
		rec.entries, rest, err = readEntries(rest)
		if err == nil {
			rec.tombs, rest, err = readLegacyTombs(rest)
		}
	case recPut, recReplace:
		rec.entries, rest, err = readEntries(rest)
	default:
		return record{}, errTorn
	}
	if err != nil {
		return record{}, err
	}
	if len(rest) != 0 {
		return record{}, errTorn
	}
	return rec, nil
}

// readEntries decodes a uvarint-counted entry list.
func readEntries(b []byte) ([]overlay.Entry, []byte, error) {
	count, n := binary.Uvarint(b)
	if n <= 0 || count > uint64(len(b)-n)/minEntrySize {
		return nil, nil, errTorn
	}
	b = b[n:]
	entries := make([]overlay.Entry, 0, count)
	for i := uint64(0); i < count; i++ {
		kind, rem, err := readString(b)
		if err != nil {
			return nil, nil, err
		}
		value, rem, err := readString(rem)
		if err != nil {
			return nil, nil, err
		}
		b = rem
		entries = append(entries, overlay.Entry{Kind: kind, Value: value})
	}
	return entries, b, nil
}

// readTombs decodes a uvarint-counted tombstone list.
func readTombs(b []byte) ([]wire.Tombstone, []byte, error) {
	count, n := binary.Uvarint(b)
	if n <= 0 || count > uint64(len(b)-n)/tombSize {
		return nil, nil, errTorn
	}
	b = b[n:]
	tombs := make([]wire.Tombstone, count)
	for i := range tombs {
		tombs[i] = wire.Tombstone{Hash: binary.LittleEndian.Uint64(b), At: int64(binary.LittleEndian.Uint64(b[8:]))}
		b = b[tombSize:]
	}
	return tombs, b, nil
}

// readLegacyTombs decodes a uvarint-counted list of legacy tombstones,
// each an entry's strings and an At, into the digests of the entries.
func readLegacyTombs(b []byte) ([]wire.Tombstone, []byte, error) {
	count, n := binary.Uvarint(b)
	if n <= 0 || count > uint64(len(b)-n)/minLegacyTombSize {
		return nil, nil, errTorn
	}
	b = b[n:]
	tombs := make([]wire.Tombstone, 0, count)
	for i := uint64(0); i < count; i++ {
		kind, rem, err := readString(b)
		if err != nil {
			return nil, nil, err
		}
		value, rem, err := readString(rem)
		if err != nil {
			return nil, nil, err
		}
		if len(rem) < 8 {
			return nil, nil, errTorn
		}
		at := int64(binary.LittleEndian.Uint64(rem))
		b = rem[8:]
		tombs = append(tombs, wire.TombstoneOf(overlay.Entry{Kind: kind, Value: value}, at))
	}
	return tombs, b, nil
}

// readString decodes one uvarint-length-prefixed string.
func readString(b []byte) (string, []byte, error) {
	length, n := binary.Uvarint(b)
	if n <= 0 || uint64(len(b)-n) < length {
		return "", nil, errTorn
	}
	return string(b[n : n+int(length)]), b[n+int(length):], nil
}
