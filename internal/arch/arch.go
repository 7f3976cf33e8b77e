// Package arch is the simulated hardware layer underneath the lock
// implementations.
//
// The paper's implementation ran on three kinds of machines — PowerPC
// uniprocessors, PowerPC multiprocessors, and older POWER machines without
// user-level atomic instructions — and §3.5.1 studies the cost of the
// resulting code-path variants. This package models those machines:
//
//   - PowerPCUP: user-level compare-and-swap, no memory barriers needed.
//   - PowerPCMP: user-level compare-and-swap plus isync/sync barriers
//     after lock and before unlock.
//   - POWER: no user-level compare-and-swap; the operation is performed
//     by a kernel service. We model the kernel service the way such
//     kernels implemented it — a global serialization lock around a plain
//     read-modify-write — which honestly reproduces both the extra cost
//     and the whole-machine serialization of the kernel path.
//
// On the Go side, sync/atomic's CompareAndSwapUint32 is the expensive
// fenced read-modify-write and atomic Load compiles to a plain move on
// x86. Atomic Store does not: it is sequentially consistent, so on amd64
// it compiles to XCHG, a locked read-modify-write as fenced as a CAS.
// StoreRelease and StoreRelease64 restore the paper's asymmetry: on
// amd64 (without the race detector) they are one assembly MOV, a
// release store under x86-TSO; elsewhere they fall back to atomic
// Store. A release store does not order the storing thread's later
// loads, so a Dekker-style handshake built on one needs the other side
// to fence for both: ProcessBarrier does that with membarrier(2) where
// the kernel offers it (AsymmetricFences).
package arch

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// CPU selects one of the simulated machine models.
type CPU int

const (
	// PowerPCUP is a PowerPC uniprocessor: native compare-and-swap,
	// no barriers.
	PowerPCUP CPU = iota
	// PowerPCMP is a PowerPC multiprocessor: native compare-and-swap,
	// isync after lock and sync before unlock.
	PowerPCMP
	// POWER is an old POWER/POWER2 machine: compare-and-swap is a call
	// into the kernel.
	POWER
)

// String returns the model name used in reports.
func (c CPU) String() string {
	switch c {
	case PowerPCUP:
		return "PowerPC-UP"
	case PowerPCMP:
		return "PowerPC-MP"
	case POWER:
		return "POWER"
	default:
		return "unknown-cpu"
	}
}

// kernelLock serializes the simulated kernel compare-and-swap service,
// mirroring the global serialization of a kernel-provided atomic primitive.
var kernelLock sync.Mutex

// CAS performs a compare-and-swap of *addr from old to new under the given
// CPU model and reports whether the swap happened.
func CAS(cpu CPU, addr *uint32, old, new uint32) bool {
	switch cpu {
	case POWER:
		return kernelCAS(addr, old, new)
	default:
		return atomic.CompareAndSwapUint32(addr, old, new)
	}
}

// kernelCAS emulates a kernel compare-and-swap service call: a global
// lock around a plain read-modify-write. The function is kept out of
// line so the call itself contributes the "system call" overhead.
//
//go:noinline
func kernelCAS(addr *uint32, old, new uint32) bool {
	kernelLock.Lock()
	// Inside the "kernel" the store may be plain, but Go's race
	// detector (and weak machines) require the atomic pair.
	ok := atomic.LoadUint32(addr) == old
	if ok {
		atomic.StoreUint32(addr, new)
	}
	kernelLock.Unlock()
	return ok
}

// fenceWord is a dummy location used to issue full memory barriers.
var fenceWord uint32

// ISync models the PowerPC isync instruction issued after acquiring a
// lock on a multiprocessor: an acquire barrier. Go's memory model gives
// us the ordering for free from the CAS, so the barrier exists purely to
// charge the instruction's cost, which we approximate with a locked
// no-op read-modify-write.
func ISync() {
	atomic.AddUint32(&fenceWord, 0)
}

// Sync models the PowerPC sync instruction issued before releasing a
// lock on a multiprocessor: a full barrier.
func Sync() {
	atomic.AddUint32(&fenceWord, 0)
}

// spinsBeforeYield is how many busy-wait rounds Backoff performs before
// starting to yield the processor.
const spinsBeforeYield = 4

// maxSleep caps the exponential back-off sleep.
const maxSleep = time.Millisecond

// Backoff implements the exponential back-off of Anderson [1] referenced
// by the paper (§2.3.4) for the spin-locking loop used during inflation.
// The zero value is ready to use.
type Backoff struct {
	round uint
}

// Pause waits an amount of time that grows with the number of calls:
// first a few busy spins, then scheduler yields, then short sleeps with
// exponentially increasing duration.
func (b *Backoff) Pause() {
	switch {
	case b.round < spinsBeforeYield:
		procYield(1 << b.round)
	case b.round < spinsBeforeYield+4:
		runtime.Gosched()
	default:
		d := time.Microsecond << (b.round - spinsBeforeYield - 4)
		if d > maxSleep {
			d = maxSleep
		}
		time.Sleep(d)
	}
	if b.round < 63 {
		b.round++
	}
}

// Rounds reports how many times Pause has been called.
func (b *Backoff) Rounds() uint { return b.round }

// Reset restarts the back-off schedule.
func (b *Backoff) Reset() { b.round = 0 }

// spinSink defeats dead-code elimination of the busy-wait loop.
var spinSink uint32

// procYield burns a few cycles without touching shared memory, standing
// in for a PAUSE-style instruction in the spin loop.
//
//go:noinline
func procYield(n uint) {
	var x uint32
	for i := uint(0); i < n; i++ {
		x += uint32(i)
	}
	atomic.StoreUint32(&spinSink, x)
}
