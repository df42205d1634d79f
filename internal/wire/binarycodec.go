package wire

// The compact binary encoding for Message, the only payload format the
// TCP transport speaks (DESIGN.md §17). The hot path's messages are a
// small fixed set of flat fields, so a hand-rolled encoding beats a
// reflective, self-describing one on both CPU and bytes:
//
//	[1-byte version | Op uvarint | field-presence bitmap uvarint |
//	 present fields in bit order]
//
// Scalars are varints (zigzag for signed), strings and slices carry a
// uvarint length, keys travel as raw 20-byte values and digests as
// fixed 8-byte big-endian words. Absent fields cost zero bytes: a ping
// is 3 bytes of payload.
//
// Entry lists are front-coded (DESIGN.md §28). Within one message,
// Entries and then each KV item's entries and tombstones form one chain
// in encode order, and each entry is coded against the one before it:
//
//	kind:  0 (the previous entry's kind) | uvarint len+1, bytes
//	value: uvarint shared-prefix length | uvarint suffix length, suffix
//
// A store keeps a key's entries sorted, so neighbouring values share
// most of their bytes and a Get reply carries little more than what
// differs between them.
//
// Encoding appends into a caller-owned scratch slice and decoding
// reads out of the frame buffer in place, so steady-state frames
// allocate nothing beyond the strings and slices the decoded message
// itself must own. Every decoded count is validated against the bytes
// actually remaining before any allocation, so a corrupt or hostile
// frame cannot make the node allocate past the frame it already read;
// and since a shared prefix makes a string longer than the bytes that
// carry it, the strings a message decodes to are capped in total at the
// reading connection's frame cap, checked before each one is built. An
// entry list is sized before any of it is built, and its new values
// share one buffer (DESIGN.md §36).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"strings"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
)

// binMsgVersion is the binary codec's format version byte, the wire
// format's evolution seam: bump it when the field layout changes. A peer
// on any other version fails decodeMessage on its first frame and the
// connection closes. Version 3 changed no layout but a meaning: a remove
// batch and its replication name entries by digest (DESIGN.md §44), and
// a version-2 peer would read such a request as empty and ack it.
const binMsgVersion = 3

// Field-presence bits of the binary encoding, in encode order.
const (
	binHasKey = 1 << iota
	binHasAddr
	binHasTTL
	binHasHops
	binHasBudget
	binHasCode
	binHasEntry
	binHasEntries
	binHasKV
	binHasDigests
	binHasAddrs
	binHasOk
	binHasErr
	binHasKeys
	binHasEntriesByKind
	binHasBytesByKind
)

// errBinTruncated reports a frame that declares more content than it
// carries; errBinTrailing the reverse (bytes after the last field);
// errBinTooLarge a frame whose strings add up to more than the cap.
var (
	errBinTruncated = errors.New("wire: binary message truncated")
	errBinTrailing  = errors.New("wire: binary message has trailing bytes")
	errBinTooLarge  = errors.New("wire: binary message decodes past the size cap")
)

// appendUvarint appends v in unsigned LEB128.
func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// appendVarint appends v zigzag-encoded.
func appendVarint(dst []byte, v int64) []byte {
	return binary.AppendVarint(dst, v)
}

// appendString appends s as uvarint length + bytes.
func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendEntry appends e's kind and value strings.
func appendEntry(dst []byte, e overlay.Entry) []byte {
	dst = appendString(dst, e.Kind)
	return appendString(dst, e.Value)
}

// entryChain is the encoder's side of one message's front-coded entry
// chain: the entry coded last, which the next one is coded against.
type entryChain struct {
	prev    overlay.Entry
	started bool
}

// append appends e coded against the previous entry, which e becomes.
func (c *entryChain) append(dst []byte, e overlay.Entry) []byte {
	return c.appendValue(c.appendKind(dst, e.Kind), e.Value)
}

// appendKind appends kind as a back-reference to the previous entry's
// kind when it repeats it, else as its length+1 and bytes.
func (c *entryChain) appendKind(dst []byte, kind string) []byte {
	repeat := c.started && kind == c.prev.Kind
	c.prev.Kind, c.started = kind, true
	if repeat {
		return append(dst, 0)
	}
	dst = appendUvarint(dst, uint64(len(kind))+1)
	return append(dst, kind...)
}

// appendValue appends value as the length of the prefix it shares with
// the previous entry's value, then the rest of it.
func (c *entryChain) appendValue(dst []byte, value string) []byte {
	p := sharedPrefix(value, c.prev.Value)
	c.prev.Value = value
	dst = appendUvarint(dst, uint64(p))
	return appendString(dst, value[p:])
}

// sharedPrefix is the length of the longest common prefix of a and b,
// compared eight bytes at a time.
func sharedPrefix(a, b string) int {
	n := min(len(a), len(b))
	p := 0
	for ; p+8 <= n; p += 8 {
		if x := binary.LittleEndian.Uint64([]byte(a[p:p+8])) ^ binary.LittleEndian.Uint64([]byte(b[p:p+8])); x != 0 {
			return p + bits.TrailingZeros64(x)/8
		}
	}
	for p < n && a[p] == b[p] {
		p++
	}
	return p
}

// messageFlags computes m's field-presence bitmap.
func messageFlags(m *Message) uint64 {
	var flags uint64
	if m.Key != (keyspace.Key{}) {
		flags |= binHasKey
	}
	if m.Addr != "" {
		flags |= binHasAddr
	}
	if m.TTL != 0 {
		flags |= binHasTTL
	}
	if m.Hops != 0 {
		flags |= binHasHops
	}
	if m.BudgetMicros != 0 {
		flags |= binHasBudget
	}
	if m.Code != 0 {
		flags |= binHasCode
	}
	if m.Entry != (overlay.Entry{}) {
		flags |= binHasEntry
	}
	if len(m.Entries) > 0 {
		flags |= binHasEntries
	}
	if len(m.KV) > 0 {
		flags |= binHasKV
	}
	if len(m.Digests) > 0 {
		flags |= binHasDigests
	}
	if len(m.Addrs) > 0 {
		flags |= binHasAddrs
	}
	if m.Ok {
		flags |= binHasOk
	}
	if m.Err != "" {
		flags |= binHasErr
	}
	if m.Keys != 0 {
		flags |= binHasKeys
	}
	if len(m.EntriesByKind) > 0 {
		flags |= binHasEntriesByKind
	}
	if len(m.BytesByKind) > 0 {
		flags |= binHasBytesByKind
	}
	return flags
}

// appendMessage appends m's binary encoding to dst and returns the
// extended slice. It never fails: every Message value has an encoding.
func appendMessage(dst []byte, m *Message) []byte {
	flags := messageFlags(m)
	dst = append(dst, binMsgVersion)
	dst = appendUvarint(dst, uint64(m.Op))
	dst = appendUvarint(dst, flags)
	if flags&binHasKey != 0 {
		dst = append(dst, m.Key[:]...)
	}
	if flags&binHasAddr != 0 {
		dst = appendString(dst, m.Addr)
	}
	if flags&binHasTTL != 0 {
		dst = appendVarint(dst, int64(m.TTL))
	}
	if flags&binHasHops != 0 {
		dst = appendVarint(dst, int64(m.Hops))
	}
	if flags&binHasBudget != 0 {
		dst = appendVarint(dst, m.BudgetMicros)
	}
	if flags&binHasCode != 0 {
		dst = appendVarint(dst, int64(m.Code))
	}
	if flags&binHasEntry != 0 {
		dst = appendEntry(dst, m.Entry)
	}
	var chain entryChain
	if flags&binHasEntries != 0 {
		dst = appendUvarint(dst, uint64(len(m.Entries)))
		for _, e := range m.Entries {
			dst = chain.append(dst, e)
		}
	}
	if flags&binHasKV != 0 {
		dst = appendUvarint(dst, uint64(len(m.KV)))
		for i := range m.KV {
			kv := &m.KV[i]
			dst = append(dst, kv.Key[:]...)
			dst = appendUvarint(dst, uint64(len(kv.Entries)))
			for _, e := range kv.Entries {
				dst = chain.append(dst, e)
			}
			dst = appendUvarint(dst, uint64(len(kv.Tombs)))
			for _, t := range kv.Tombs {
				dst = chain.append(dst, t.Entry)
				dst = appendVarint(dst, t.At)
			}
		}
	}
	if flags&binHasDigests != 0 {
		dst = appendUvarint(dst, uint64(len(m.Digests)))
		for i := range m.Digests {
			dst = append(dst, m.Digests[i].Key[:]...)
			dst = binary.BigEndian.AppendUint64(dst, m.Digests[i].Digest)
		}
	}
	if flags&binHasAddrs != 0 {
		dst = appendUvarint(dst, uint64(len(m.Addrs)))
		for _, a := range m.Addrs {
			dst = appendString(dst, a)
		}
	}
	if flags&binHasErr != 0 {
		dst = appendString(dst, m.Err)
	}
	if flags&binHasKeys != 0 {
		dst = appendVarint(dst, int64(m.Keys))
	}
	if flags&binHasEntriesByKind != 0 {
		dst = appendUvarint(dst, uint64(len(m.EntriesByKind)))
		for k, v := range m.EntriesByKind {
			dst = appendString(dst, k)
			dst = appendVarint(dst, int64(v))
		}
	}
	if flags&binHasBytesByKind != 0 {
		dst = appendUvarint(dst, uint64(len(m.BytesByKind)))
		for k, v := range m.BytesByKind {
			dst = appendString(dst, k)
			dst = appendVarint(dst, v)
		}
	}
	return dst
}

// binReader is a bounds-checked cursor over one binary payload.
type binReader struct {
	data []byte
	off  int
	// budget is what is left of the bytes the message's strings may add
	// up to, shared or not.
	budget int64
	// prev is the chain's previous entry; started says there is one.
	prev    overlay.Entry
	started bool
	// addr, when not nil, is the Addr the reading connection decoded
	// last (see addrField).
	addr *string
}

// spend charges n string bytes to the budget before they are built.
func (r *binReader) spend(n uint64) error {
	if n > uint64(r.budget) {
		return errBinTooLarge
	}
	r.budget -= int64(n)
	return nil
}

func (r *binReader) remaining() int { return len(r.data) - r.off }

// uvarint reads one unsigned varint. Counts, lengths and chain tags
// mostly fit one byte, and that case inlines.
func (r *binReader) uvarint() (uint64, error) {
	if off := r.off; off < len(r.data) {
		if b := r.data[off]; b < 0x80 {
			r.off = off + 1
			return uint64(b), nil
		}
	}
	return r.longUvarint()
}

func (r *binReader) longUvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, errBinTruncated
	}
	r.off += n
	return v, nil
}

func (r *binReader) varint() (int64, error) {
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		return 0, errBinTruncated
	}
	r.off += n
	return v, nil
}

// intField decodes a zigzag varint that must fit a platform int.
func (r *binReader) intField() (int, error) {
	v, err := r.varint()
	if err != nil {
		return 0, err
	}
	if int64(int(v)) != v {
		return 0, fmt.Errorf("wire: binary int field %d overflows", v)
	}
	return int(v), nil
}

// count decodes a collection length and validates it against the bytes
// actually remaining, given each element needs at least minElem bytes.
// The check runs before any allocation sized by the count.
func (r *binReader) count(minElem int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(r.remaining()/minElem) {
		return 0, errBinTruncated
	}
	return int(v), nil
}

func (r *binReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	b, err := r.bytes(n)
	if err != nil {
		return "", err
	}
	if err := r.spend(n); err != nil {
		return "", err
	}
	return string(b), nil
}

// addrField reads the Addr field. A connection's frames repeat one
// Addr — a server names itself in every reply, a client's requests name
// the same peer — so when the bytes equal the connection's last Addr
// that string is returned again instead of a new one.
func (r *binReader) addrField() (string, error) {
	if r.addr == nil {
		return r.str()
	}
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	b, err := r.bytes(n)
	if err != nil {
		return "", err
	}
	if err := r.spend(n); err != nil {
		return "", err
	}
	if string(b) != *r.addr {
		*r.addr = string(b)
	}
	return *r.addr, nil
}

func (r *binReader) key() (keyspace.Key, error) {
	var k keyspace.Key
	if r.remaining() < keyspace.Size {
		return k, errBinTruncated
	}
	copy(k[:], r.data[r.off:])
	r.off += keyspace.Size
	return k, nil
}

func (r *binReader) entry() (overlay.Entry, error) {
	var e overlay.Entry
	var err error
	if e.Kind, err = r.str(); err != nil {
		return e, err
	}
	e.Value, err = r.str()
	return e, err
}

// chainLink is one chained entry as the wire gives it: a new kind, or a
// back-reference to the previous entry's; how many bytes of the previous
// value the value starts with; and the bytes that follow them.
type chainLink struct {
	repeat bool
	kind   []byte
	shared int
	suffix []byte
}

// link reads the chain's next entry into l and checks it against the
// previous one: started says there is one, prevValue is its value's
// length.
func (r *binReader) link(l *chainLink, started bool, prevValue int) error {
	tag, err := r.uvarint()
	if err != nil {
		return err
	}
	l.repeat = tag == 0
	if l.repeat {
		if !started {
			return errors.New("wire: binary entry repeats the kind of no entry")
		}
	} else if l.kind, err = r.bytes(tag - 1); err != nil {
		return err
	}
	p, err := r.uvarint()
	if err != nil {
		return err
	}
	if p > uint64(prevValue) {
		return fmt.Errorf("wire: binary entry shares %d bytes of a %d-byte value", p, prevValue)
	}
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	l.shared = int(p)
	l.suffix, err = r.bytes(n)
	return err
}

// bytes reads the next n bytes in place.
func (r *binReader) bytes(n uint64) ([]byte, error) {
	if n > uint64(r.remaining()) {
		return nil, errBinTruncated
	}
	b := r.data[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

// reserve sizes the next n chained entries — n tombstones, each with its
// timestamp, when tombs — before any of them is built. A shared prefix
// makes a value longer than the bytes that carry it, so the strings a
// list decodes to are only known by walking it: reserve charges them all
// to the budget, refusing a list that would decode past it before
// anything is allocated for it, and then grows vals to exactly the bytes
// the list's new values take, which chained builds them into.
func (r *binReader) reserve(n int, tombs bool, vals *strings.Builder) error {
	ahead := *r
	started, kind, value := r.started, len(r.prev.Kind), len(r.prev.Value)
	var spend, size uint64
	var l chainLink
	for range n {
		if err := ahead.link(&l, started, value); err != nil {
			return err
		}
		if tombs {
			if _, err := ahead.varint(); err != nil {
				return err
			}
		}
		if !l.repeat {
			kind = len(l.kind)
		}
		started, value = true, l.shared+len(l.suffix)
		spend += uint64(kind + value)
		if spend > uint64(r.budget) {
			return errBinTooLarge
		}
		if len(l.suffix) > 0 {
			size += uint64(value)
		}
	}
	r.budget -= int64(spend)
	vals.Grow(int(size))
	return nil
}

// chained decodes the chain's next entry against the previous one. Its
// kind is the previous entry's string when it repeats it; its value is a
// prefix of the previous value when it adds nothing to it, and otherwise
// a substring of vals, which reserve sized and charged for.
func (r *binReader) chained(vals *strings.Builder) (overlay.Entry, error) {
	var l chainLink
	if err := r.link(&l, r.started, len(r.prev.Value)); err != nil {
		return overlay.Entry{}, err
	}
	e := r.prev
	if !l.repeat {
		e.Kind = string(l.kind)
	}
	if len(l.suffix) == 0 {
		e.Value = r.prev.Value[:l.shared]
	} else {
		start := vals.Len()
		vals.WriteString(r.prev.Value[:l.shared])
		vals.Write(l.suffix)
		e.Value = vals.String()[start:]
	}
	r.prev, r.started = e, true
	return e, nil
}

func (r *binReader) entries() ([]overlay.Entry, error) {
	// A chained entry is a kind tag, a prefix length and a suffix
	// length: at least three bytes.
	n, err := r.count(3)
	if err != nil || n == 0 {
		return nil, err
	}
	var vals strings.Builder
	if err := r.reserve(n, false, &vals); err != nil {
		return nil, err
	}
	out := make([]overlay.Entry, n)
	for i := range out {
		if out[i], err = r.chained(&vals); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (r *binReader) tombstones() ([]Tombstone, error) {
	// A tombstone is a chained entry plus a varint: at least four bytes.
	n, err := r.count(4)
	if err != nil || n == 0 {
		return nil, err
	}
	var vals strings.Builder
	if err := r.reserve(n, true, &vals); err != nil {
		return nil, err
	}
	out := make([]Tombstone, n)
	for i := range out {
		if out[i].Entry, err = r.chained(&vals); err != nil {
			return nil, err
		}
		if out[i].At, err = r.varint(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// decodeMessage decodes one binary payload into m, overwriting every
// field (absent fields reset to their zero values so a reused Message
// carries nothing over between frames). The strings m decodes to may add
// up to maxBytes, the reading connection's frame cap. addr, when not
// nil, holds the Addr the connection decoded last, which an equal Addr
// reuses and a different one replaces.
func decodeMessage(data []byte, m *Message, maxBytes int64, addr *string) error {
	*m = Message{}
	if len(data) == 0 {
		return errBinTruncated
	}
	if data[0] != binMsgVersion {
		return fmt.Errorf("wire: binary message version %d, want %d", data[0], binMsgVersion)
	}
	r := binReader{data: data, off: 1, budget: maxBytes, addr: addr}
	op, err := r.uvarint()
	if err != nil {
		return err
	}
	m.Op = Op(op)
	flags, err := r.uvarint()
	if err != nil {
		return err
	}
	if flags >= 1<<16 {
		return fmt.Errorf("wire: binary message has unknown field bits %#x", flags&^((1<<16)-1))
	}
	if flags&binHasKey != 0 {
		if m.Key, err = r.key(); err != nil {
			return err
		}
	}
	if flags&binHasAddr != 0 {
		if m.Addr, err = r.addrField(); err != nil {
			return err
		}
	}
	if flags&binHasTTL != 0 {
		if m.TTL, err = r.intField(); err != nil {
			return err
		}
	}
	if flags&binHasHops != 0 {
		if m.Hops, err = r.intField(); err != nil {
			return err
		}
	}
	if flags&binHasBudget != 0 {
		if m.BudgetMicros, err = r.varint(); err != nil {
			return err
		}
	}
	if flags&binHasCode != 0 {
		if m.Code, err = r.intField(); err != nil {
			return err
		}
	}
	if flags&binHasEntry != 0 {
		if m.Entry, err = r.entry(); err != nil {
			return err
		}
	}
	if flags&binHasEntries != 0 {
		if m.Entries, err = r.entries(); err != nil {
			return err
		}
	}
	if flags&binHasKV != 0 {
		// A KV element is a key plus two counts.
		n, err := r.count(keyspace.Size + 2)
		if err != nil {
			return err
		}
		if n > 0 {
			m.KV = make([]KeyEntries, n)
			for i := range m.KV {
				if m.KV[i].Key, err = r.key(); err != nil {
					return err
				}
				if m.KV[i].Entries, err = r.entries(); err != nil {
					return err
				}
				if m.KV[i].Tombs, err = r.tombstones(); err != nil {
					return err
				}
			}
		}
	}
	if flags&binHasDigests != 0 {
		n, err := r.count(keyspace.Size + 8)
		if err != nil {
			return err
		}
		if n > 0 {
			m.Digests = make([]KeyDigest, n)
			for i := range m.Digests {
				if m.Digests[i].Key, err = r.key(); err != nil {
					return err
				}
				if r.remaining() < 8 {
					return errBinTruncated
				}
				m.Digests[i].Digest = binary.BigEndian.Uint64(r.data[r.off:])
				r.off += 8
			}
		}
	}
	if flags&binHasAddrs != 0 {
		n, err := r.count(1)
		if err != nil {
			return err
		}
		if n > 0 {
			m.Addrs = make([]string, n)
			for i := range m.Addrs {
				if m.Addrs[i], err = r.str(); err != nil {
					return err
				}
			}
		}
	}
	m.Ok = flags&binHasOk != 0
	if flags&binHasErr != 0 {
		if m.Err, err = r.str(); err != nil {
			return err
		}
	}
	if flags&binHasKeys != 0 {
		if m.Keys, err = r.intField(); err != nil {
			return err
		}
	}
	if flags&binHasEntriesByKind != 0 {
		n, err := r.count(2)
		if err != nil {
			return err
		}
		if n > 0 {
			m.EntriesByKind = make(map[string]int, n)
			for i := 0; i < n; i++ {
				k, err := r.str()
				if err != nil {
					return err
				}
				v, err := r.intField()
				if err != nil {
					return err
				}
				m.EntriesByKind[k] = v
			}
		}
	}
	if flags&binHasBytesByKind != 0 {
		n, err := r.count(2)
		if err != nil {
			return err
		}
		if n > 0 {
			m.BytesByKind = make(map[string]int64, n)
			for i := 0; i < n; i++ {
				k, err := r.str()
				if err != nil {
					return err
				}
				v, err := r.varint()
				if err != nil {
					return err
				}
				m.BytesByKind[k] = v
			}
		}
	}
	if r.remaining() != 0 {
		return errBinTrailing
	}
	return nil
}
