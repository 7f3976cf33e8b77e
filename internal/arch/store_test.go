package arch

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestStoreReleaseValue(t *testing.T) {
	t.Parallel()
	w := uint32(7)
	for _, v := range []uint32{0, 1, 0x80000000, 0xFFFFFFFF, 42} {
		StoreRelease(&w, v)
		if got := atomic.LoadUint32(&w); got != v {
			t.Errorf("after StoreRelease(%#x) word = %#x", v, got)
		}
	}
	// The store writes exactly its own 4 bytes.
	var pair [2]uint32
	StoreRelease(&pair[0], 0xFFFFFFFF)
	if pair[1] != 0 {
		t.Errorf("StoreRelease spilled into the next word: %#x", pair[1])
	}
}

func TestStoreRelease64Value(t *testing.T) {
	t.Parallel()
	w := uint64(7)
	for _, v := range []uint64{0, 1, 1 << 32, 0xFFFFFFFF00000000, 0xFFFFFFFFFFFFFFFF, 42} {
		StoreRelease64(&w, v)
		if got := atomic.LoadUint64(&w); got != v {
			t.Errorf("after StoreRelease64(%#x) word = %#x", v, got)
		}
	}
}

// spinBarrier is a two-party sense-reversing spin barrier.
type spinBarrier struct {
	arrived atomic.Uint32
	gen     atomic.Uint32
}

func (b *spinBarrier) wait() {
	g := b.gen.Load()
	if b.arrived.Add(1) == 2 {
		b.arrived.Store(0)
		b.gen.Add(1)
		return
	}
	// Spin, then yield; if the peer's thread lost its CPU to another
	// process, sleep so the OS can give it back.
	for i := 1; b.gen.Load() == g; i++ {
		switch {
		case i%(1<<16) == 0:
			time.Sleep(10 * time.Microsecond)
		case i%1024 == 0:
			runtime.Gosched()
		}
	}
}

// storeBuffering runs the store-buffering litmus test the biased
// revocation handshake rests on, and returns how many of the rounds
// ended with the forbidden outcome r1 == 0 && r2 == 0:
//
//	owner:   StoreRelease64(&d, 1); r1 = Load(&h)
//	revoker: CAS(&h, 0, 1); ProcessBarrier(); r2 = Load(&d)
//
// With barrier false the revoker skips ProcessBarrier.
func storeBuffering(rounds int, barrier bool) int {
	var (
		d   uint64
		h   uint32
		r1  uint32
		r2  uint64
		bar spinBarrier
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < rounds; i++ {
			bar.wait()
			atomic.CompareAndSwapUint32(&h, 0, 1)
			if barrier {
				ProcessBarrier()
			}
			r2 = atomic.LoadUint64(&d)
			bar.wait()
		}
	}()
	forbidden := 0
	for i := 0; i < rounds; i++ {
		atomic.StoreUint64(&d, 0)
		atomic.StoreUint32(&h, 0)
		bar.wait()
		StoreRelease64(&d, 1)
		r1 = atomic.LoadUint32(&h)
		bar.wait()
		if r1 == 0 && r2 == 0 {
			forbidden++
		}
	}
	<-done
	return forbidden
}

// TestProcessBarrierForbidsStoreBuffering checks that ProcessBarrier
// turns the owner's release store and later load into a Dekker pair
// with the revoker's CAS and later load: no round may see both loads
// miss the other side's store. The same litmus without the barrier is
// only logged; a release store is allowed to be passed by its own
// thread's later load, so forbidden outcomes may show up there.
func TestProcessBarrierForbidsStoreBuffering(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("store buffering needs two goroutines running in parallel")
	}
	if !AsymmetricFences {
		t.Skip("no process-wide barrier on this platform (or under -race)")
	}
	const rounds = 200_000
	without := storeBuffering(rounds, false)
	t.Logf("without ProcessBarrier: %d forbidden outcomes in %d rounds", without, rounds)
	if with := storeBuffering(rounds, true); with != 0 {
		t.Fatalf("with ProcessBarrier: %d forbidden outcomes in %d rounds, want 0", with, rounds)
	}
}
