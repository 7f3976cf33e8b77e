//go:build !amd64 || race

package arch

import "sync/atomic"

// StoreRelease stores v into *addr with at least release semantics.
// Without an amd64 assembly MOVL (other architectures, or the race
// detector, which must see the store) it is atomic.StoreUint32.
func StoreRelease(addr *uint32, v uint32) { atomic.StoreUint32(addr, v) }

// StoreRelease64 is StoreRelease for a 64-bit word.
func StoreRelease64(addr *uint64, v uint64) { atomic.StoreUint64(addr, v) }
