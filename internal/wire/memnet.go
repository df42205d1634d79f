package wire

import (
	"fmt"
	"io"
	"sync"
)

// MemTransport is an in-process transport: calls dispatch directly to the
// registered handler. It gives tests real message-passing semantics (no
// shared state between nodes except the messages) without network
// flakiness.
type MemTransport struct {
	mu       sync.RWMutex
	handlers map[string]Handler
	nextPort int
}

// NewMemTransport creates an empty in-memory transport.
func NewMemTransport() *MemTransport {
	return &MemTransport{handlers: make(map[string]Handler)}
}

// Listen implements Transport.
func (t *MemTransport) Listen(addr string, handler Handler) (string, io.Closer, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if addr == "" || addr == "mem:0" {
		t.nextPort++
		addr = fmt.Sprintf("mem-%04d", t.nextPort)
	}
	if _, ok := t.handlers[addr]; ok {
		return "", nil, fmt.Errorf("wire: address %s already bound", addr)
	}
	t.handlers[addr] = handler
	return addr, memCloser{t: t, addr: addr}, nil
}

// Call implements Transport.
func (t *MemTransport) Call(addr string, req Message) (Message, error) {
	t.mu.RLock()
	handler, ok := t.handlers[addr]
	t.mu.RUnlock()
	if !ok {
		return Message{}, fmt.Errorf("%w: %s", ErrUnreachable, addr)
	}
	resp := handler(req)
	return resp, nil
}

// inProcess implements inProcessTransport: Call runs the handler itself.
func (t *MemTransport) inProcess() bool { return true }

type memCloser struct {
	t    *MemTransport
	addr string
}

func (c memCloser) Close() error {
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	delete(c.t.handlers, c.addr)
	return nil
}
