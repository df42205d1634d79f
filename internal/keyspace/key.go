// Package keyspace implements the 160-bit circular identifier space used by
// the DHT substrate. Keys are SHA-1 hashes of textual identifiers, compared
// and subtracted modulo 2^160, exactly as in Chord (Stoica et al., SIGCOMM
// 2001), which the paper lists as a representative substrate.
package keyspace

import (
	"crypto/sha1"
	"encoding/hex"
	"errors"
	"fmt"
	"math/big"
)

// Size is the number of bytes in a key (SHA-1 output size).
const Size = sha1.Size

// Bits is the number of bits in the identifier space.
const Bits = Size * 8

// Key is a 160-bit identifier on the ring.
type Key [Size]byte

// ErrBadKeyString reports a malformed textual key representation.
var ErrBadKeyString = errors.New("keyspace: malformed key string")

// NewKey hashes an arbitrary textual identifier into the key space.
// The paper's h(descriptor): identical descriptors (after normalization)
// always map to the same key.
//
// An identifier up to 256 bytes is hashed from a copy on the stack, so
// NewKey allocates nothing for the canonical forms the index keys on.
func NewKey(identifier string) Key {
	var buf [256]byte
	if len(identifier) <= len(buf) {
		return Key(sha1.Sum(buf[:copy(buf[:], identifier)]))
	}
	return Key(sha1.Sum([]byte(identifier)))
}

// KeyFromBytes builds a key from a raw 20-byte slice.
func KeyFromBytes(b []byte) (Key, error) {
	var k Key
	if len(b) != Size {
		return k, fmt.Errorf("keyspace: key must be %d bytes, got %d", Size, len(b))
	}
	copy(k[:], b)
	return k, nil
}

// ParseKey parses the hexadecimal form produced by String.
func ParseKey(s string) (Key, error) {
	var k Key
	b, err := hex.DecodeString(s)
	if err != nil {
		return k, fmt.Errorf("%w: %v", ErrBadKeyString, err)
	}
	if len(b) != Size {
		return k, fmt.Errorf("%w: want %d bytes, got %d", ErrBadKeyString, Size, len(b))
	}
	copy(k[:], b)
	return k, nil
}

// String returns the lowercase hexadecimal form of the key.
func (k Key) String() string {
	return hex.EncodeToString(k[:])
}

// Short returns an abbreviated hexadecimal prefix, convenient for logs.
func (k Key) Short() string {
	return hex.EncodeToString(k[:4])
}

// Cmp compares two keys as unsigned 160-bit integers. It returns -1, 0 or +1.
func (k Key) Cmp(other Key) int {
	for i := 0; i < Size; i++ {
		switch {
		case k[i] < other[i]:
			return -1
		case k[i] > other[i]:
			return 1
		}
	}
	return 0
}

// Equal reports whether two keys are identical.
func (k Key) Equal(other Key) bool {
	return k == other
}

// Between reports whether k lies in the half-open ring interval (from, to].
// This is the ownership test used by consistent hashing: the successor of a
// key owns it. The interval wraps around zero when from >= to; the full
// circle is the degenerate case from == to, which contains every key.
func (k Key) Between(from, to Key) bool {
	switch from.Cmp(to) {
	case -1: // no wrap: (from, to]
		return k.Cmp(from) > 0 && k.Cmp(to) <= 0
	case 1: // wraps zero: (from, max] or [0, to]
		return k.Cmp(from) > 0 || k.Cmp(to) <= 0
	default: // from == to: whole circle
		return true
	}
}

// BetweenOpen reports whether k lies in the open ring interval (from, to),
// used by Chord's finger maintenance and stabilization.
func (k Key) BetweenOpen(from, to Key) bool {
	switch from.Cmp(to) {
	case -1:
		return k.Cmp(from) > 0 && k.Cmp(to) < 0
	case 1:
		return k.Cmp(from) > 0 || k.Cmp(to) < 0
	default:
		// Whole circle excluding the single point from == to.
		return k.Cmp(from) != 0
	}
}

// Add returns k + 2^exp (mod 2^160). It computes Chord finger-table starts:
// finger[i].start = n + 2^i.
func (k Key) Add(exp uint) Key {
	if exp >= Bits {
		return k
	}
	var out Key
	copy(out[:], k[:])
	// Add the bit at position exp (counting from the least-significant bit),
	// propagating the carry toward the most-significant byte.
	byteIdx := Size - 1 - int(exp/8)
	carry := uint16(1) << (exp % 8)
	for i := byteIdx; i >= 0 && carry > 0; i-- {
		sum := uint16(out[i]) + carry
		out[i] = byte(sum)
		carry = sum >> 8
	}
	return out
}

// ClockwiseTo returns the clockwise ring distance from k to other as a
// Key ((other - k) mod 2^160). Unlike Distance it allocates nothing,
// making it suitable for routing hot paths; compare results with Cmp.
func (k Key) ClockwiseTo(other Key) Key {
	var out Key
	borrow := 0
	for i := Size - 1; i >= 0; i-- {
		d := int(other[i]) - int(k[i]) - borrow
		if d < 0 {
			d += 256
			borrow = 1
		} else {
			borrow = 0
		}
		out[i] = byte(d)
	}
	return out
}

// Distance returns the clockwise ring distance from k to other as a big
// integer in [0, 2^160). It is used by tests and load-balance diagnostics.
func (k Key) Distance(other Key) *big.Int {
	a := new(big.Int).SetBytes(k[:])
	b := new(big.Int).SetBytes(other[:])
	d := new(big.Int).Sub(b, a)
	if d.Sign() < 0 {
		mod := new(big.Int).Lsh(big.NewInt(1), Bits)
		d.Add(d, mod)
	}
	return d
}
