package wire

// StateDigest exposes the repair digest to the external test package,
// which is where the durable stores can be imported.
var StateDigest = stateDigest

// AppendMessage exposes the binary codec's encoder, so the cost ledger
// sizes every message as the TCP transport would send it.
var AppendMessage = appendMessage

// FrameHeaderSize is the per-frame overhead the ledger adds to it.
const FrameHeaderSize = frameHeaderSize

// FieldBytes splits the encoding of m's Addr and Entries by field: the
// bytes that carry Addr, the kinds and the values.
func FieldBytes(m *Message) (addr, kinds, values int) {
	if m.Addr != "" {
		addr = len(appendString(nil, m.Addr))
	}
	var chain entryChain
	var b []byte
	for _, e := range m.Entries {
		b = chain.appendKind(b[:0], e.Kind)
		kinds += len(b)
		b = chain.appendValue(b[:0], e.Value)
		values += len(b)
	}
	return addr, kinds, values
}

// FanOut runs the cluster's fan-out helper.
func (c *Cluster) FanOut(n, parallel int, task func(i int) error) error {
	return c.fanOut(n, parallel, task)
}

// WorkersStarted counts the workers the cluster has ever started.
func (c *Cluster) WorkersStarted() int64 { return c.workers.started.Load() }

// LogRingState logs the given members' view of the ring, for the
// external ring tests whose WaitConverged fails.
var LogRingState = logRingState

// StabilizeOnce runs one stabilize round, for tests that drive the
// maintenance of nodes whose loops never tick by hand.
func (n *Node) StabilizeOnce() { n.stabilizeOnce() }

// FixFingers runs one finger-repair round.
func (n *Node) FixFingers() { n.fixFingers() }
