package arch

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestCPUString(t *testing.T) {
	t.Parallel()
	tests := []struct {
		cpu  CPU
		want string
	}{
		{PowerPCUP, "PowerPC-UP"},
		{PowerPCMP, "PowerPC-MP"},
		{POWER, "POWER"},
		{CPU(99), "unknown-cpu"},
	}
	for _, tt := range tests {
		if got := tt.cpu.String(); got != tt.want {
			t.Errorf("CPU(%d).String() = %q, want %q", tt.cpu, got, tt.want)
		}
	}
}

func TestCASSuccess(t *testing.T) {
	t.Parallel()
	for _, cpu := range []CPU{PowerPCUP, PowerPCMP, POWER} {
		var w uint32 = 7
		if !CAS(cpu, &w, 7, 42) {
			t.Errorf("%v: CAS(7->42) on 7 failed", cpu)
		}
		if w != 42 {
			t.Errorf("%v: word = %d after successful CAS, want 42", cpu, w)
		}
	}
}

func TestCASFailure(t *testing.T) {
	t.Parallel()
	for _, cpu := range []CPU{PowerPCUP, PowerPCMP, POWER} {
		var w uint32 = 9
		if CAS(cpu, &w, 7, 42) {
			t.Errorf("%v: CAS(7->42) on 9 succeeded", cpu)
		}
		if w != 9 {
			t.Errorf("%v: word = %d after failed CAS, want 9 unchanged", cpu, w)
		}
	}
}

// TestCASAtomicity hammers one word from many goroutines; every increment
// must be preserved under each CPU model.
func TestCASAtomicity(t *testing.T) {
	t.Parallel()
	const (
		goroutines = 8
		increments = 2000
	)
	for _, cpu := range []CPU{PowerPCUP, PowerPCMP, POWER} {
		var w uint32
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < increments; i++ {
					for {
						old := atomic.LoadUint32(&w)
						if CAS(cpu, &w, old, old+1) {
							break
						}
					}
				}
			}()
		}
		wg.Wait()
		if w != goroutines*increments {
			t.Errorf("%v: final = %d, want %d", cpu, w, goroutines*increments)
		}
	}
}

func TestBackoffProgression(t *testing.T) {
	t.Parallel()
	var b Backoff
	if b.Rounds() != 0 {
		t.Fatalf("fresh Backoff rounds = %d, want 0", b.Rounds())
	}
	for i := 0; i < 12; i++ {
		b.Pause()
	}
	if b.Rounds() != 12 {
		t.Errorf("rounds = %d after 12 pauses, want 12", b.Rounds())
	}
	b.Reset()
	if b.Rounds() != 0 {
		t.Errorf("rounds = %d after Reset, want 0", b.Rounds())
	}
}

func TestBackoffRoundsSaturate(t *testing.T) {
	t.Parallel()
	b := Backoff{round: 63}
	// Must not overflow the shift; Pause at the cap keeps round at 63.
	b.Pause()
	if b.Rounds() != 63 {
		t.Errorf("rounds = %d, want saturation at 63", b.Rounds())
	}
}

func TestFencesAreCallable(t *testing.T) {
	t.Parallel()
	// The fences only charge cost; verify they are safe to call
	// concurrently.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				ISync()
				Sync()
			}
		}()
	}
	wg.Wait()
}

func BenchmarkNativeCAS(b *testing.B) {
	var w uint32
	for i := 0; i < b.N; i++ {
		CAS(PowerPCUP, &w, 0, 1)
		atomic.StoreUint32(&w, 0)
	}
}

func BenchmarkKernelCAS(b *testing.B) {
	var w uint32
	for i := 0; i < b.N; i++ {
		CAS(POWER, &w, 0, 1)
		atomic.StoreUint32(&w, 0)
	}
}

func BenchmarkPlainStore(b *testing.B) {
	var w uint32
	for i := 0; i < b.N; i++ {
		atomic.StoreUint32(&w, uint32(i))
	}
}

// BenchmarkProcessBarrier is the fence a biased revocation pays on the
// owner's behalf: one membarrier(2) call where AsymmetricFences is set,
// a no-op elsewhere. A second goroutine spins so that at least one
// other CPU runs a thread of the process and has to take the barrier.
func BenchmarkProcessBarrier(b *testing.B) {
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ProcessBarrier()
	}
	b.StopTimer()
	stop.Store(true)
	<-done
}
