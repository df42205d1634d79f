package wire

// StateDigest exposes the repair digest to the external test package,
// which is where the durable stores can be imported.
var StateDigest = stateDigest

// AppendMessage exposes the binary codec's encoder, so the cost ledger
// sizes every message as the TCP transport would send it.
var AppendMessage = appendMessage

// FrameHeaderSize is the per-frame overhead the ledger adds to it.
const FrameHeaderSize = frameHeaderSize

// StabilizeOnce runs one stabilize round, for tests that drive the
// maintenance of nodes whose loops never tick by hand.
func (n *Node) StabilizeOnce() { n.stabilizeOnce() }

// FixFingers runs one finger-repair round.
func (n *Node) FixFingers() { n.fixFingers() }
