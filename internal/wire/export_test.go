package wire

// StateDigest exposes the repair digest to the external test package,
// which is where the durable stores can be imported.
var StateDigest = stateDigest
