//go:build amd64 && !race

package arch

// StoreRelease stores v into *addr with release semantics: every load
// and store before it in program order is visible before it is. On
// amd64 it is a single MOVL, which x86-TSO already orders as a
// release, and the assembly call is a compiler barrier. Unlike
// atomic.StoreUint32 (an XCHGL) it is not a full fence: a later load
// by the same thread may be satisfied before the store leaves the
// store buffer.
//
//go:noescape
func StoreRelease(addr *uint32, v uint32)

// StoreRelease64 is StoreRelease for a 64-bit word (a single MOVQ).
//
//go:noescape
func StoreRelease64(addr *uint64, v uint64)
