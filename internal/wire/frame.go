package wire

// The length-prefixed framed protocol spoken on persistent TCP
// connections. Every frame is
//
//	[8-byte request ID | 4-byte payload length | payload]
//
// where the payload is one Message in the compact binary encoding of
// binarycodec.go, starting with its version byte. The explicit length
// prefix lets the reader enforce the size cap before allocating, and the
// request ID travels outside the payload so responses multiplex over one
// connection in any completion order. Nothing is negotiated: a peer
// speaking anything else fails decodeMessage on its first frame and the
// connection closes.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// frameHeaderSize is the fixed per-frame overhead: request ID + length.
const frameHeaderSize = 12

// maxKeptScratch is the largest frame whose buffer a connection keeps as
// scratch for the next one. A rare huge frame (a leaving node's
// OpTransfer, a repair batch) would otherwise pin up to MaxMessageSize on
// each end of a connection that stabilization traffic keeps alive
// forever; steady-state frames are far smaller and keep reusing their
// scratch allocation-free.
const maxKeptScratch = 64 << 10

// codec is one connection's framing state. Writes are serialized by wmu
// so concurrent requests interleave at frame granularity; the read side
// is owned by a single reader goroutine and needs no lock. After any
// writeFrame or readFrame error the stream may be desynchronized from
// the peer — the connection must be torn down, never reused.
type codec struct {
	conn   net.Conn
	maxMsg int64

	wmu  sync.Mutex
	wbuf []byte // frame staging, guarded by wmu

	br   *bufio.Reader
	rhdr [frameHeaderSize]byte // header staging, owned by the reader
	rbuf []byte                // payload staging, owned by the reader
	// raddr is the Addr the reader decoded last, reused by the next
	// frame that repeats it (binReader.addrField).
	raddr string

	// bytesIn/bytesOut aggregate wire bytes into the owning transport's
	// counters (never nil).
	bytesIn  *atomic.Int64
	bytesOut *atomic.Int64
}

func newCodec(conn net.Conn, maxMsg int64, bytesIn, bytesOut *atomic.Int64) *codec {
	return &codec{
		conn:     conn,
		maxMsg:   maxMsg,
		br:       bufio.NewReader(conn),
		bytesIn:  bytesIn,
		bytesOut: bytesOut,
	}
}

// writeFrame encodes msg and sends it as one frame under a write
// deadline. Header and payload are appended into the codec's own scratch
// slice — which reaches its steady-state capacity after a few frames and
// then makes the encode side allocation-free — and flushed with a single
// Write (the transport sets TCP_NODELAY implicitly — Go's default — so
// split writes would cost two packets). The caller treats any error as
// fatal to the connection.
func (c *codec) writeFrame(id uint64, msg *Message, timeout time.Duration) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	var hdr [frameHeaderSize]byte
	b := appendMessage(append(c.wbuf[:0], hdr[:]...), msg)
	if len(b) <= maxKeptScratch {
		c.wbuf = b
	}
	payload := int64(len(b) - frameHeaderSize)
	if payload > c.maxMsg {
		return fmt.Errorf("wire: frame of %d bytes exceeds cap %d", payload, c.maxMsg)
	}
	binary.BigEndian.PutUint64(b[0:8], id)
	binary.BigEndian.PutUint32(b[8:12], uint32(payload))
	if timeout > 0 {
		if err := c.conn.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
			return err
		}
	}
	if _, err := c.conn.Write(b); err != nil {
		return err
	}
	c.bytesOut.Add(int64(len(b)))
	return nil
}

// readFrame reads one frame and decodes it into msg, in place from the
// codec's reader-owned scratch; scalar-only frames decode without
// allocating at all. The declared payload length is validated against
// the size cap BEFORE any allocation, and the strings the payload decodes
// to are held within the same cap, so a corrupt or hostile peer cannot
// make the node allocate unboundedly. The read deadline is the caller's
// job — the client read loop and the server frame loop have different
// idle semantics. After an error msg holds nothing the caller may use.
func (c *codec) readFrame(msg *Message) (uint64, error) {
	if _, err := io.ReadFull(c.br, c.rhdr[:]); err != nil {
		return 0, err
	}
	id := binary.BigEndian.Uint64(c.rhdr[0:8])
	n := int64(binary.BigEndian.Uint32(c.rhdr[8:12]))
	if n > c.maxMsg {
		return 0, fmt.Errorf("wire: frame of %d bytes exceeds cap %d", n, c.maxMsg)
	}
	p := c.rbuf
	if int64(cap(p)) < n {
		p = make([]byte, n)
		if n <= maxKeptScratch {
			c.rbuf = p
		}
	}
	p = p[:n]
	if _, err := io.ReadFull(c.br, p); err != nil {
		return 0, err
	}
	c.bytesIn.Add(frameHeaderSize + n)
	if err := decodeMessage(p, msg, c.maxMsg, &c.raddr); err != nil {
		return id, fmt.Errorf("wire: decode frame: %w", err)
	}
	return id, nil
}

// isTimeoutErr reports whether err is a network timeout (an expired
// read/write deadline), which the pool's read loop uses to distinguish
// an idle reap from a dead peer.
func isTimeoutErr(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
