//go:build !linux || !amd64 || race

package arch

// AsymmetricFences is false here: without membarrier(2) (or under the
// race detector, which must see every synchronizing access) there is no
// process-wide barrier, so callers keep a full fence on the local side.
const AsymmetricFences = false

// ProcessBarrier is a no-op when AsymmetricFences is false.
func ProcessBarrier() {}
