// Benchmarks regenerating the paper's evaluation with `go test -bench`.
//
// Mapping to the paper (see DESIGN.md §4 and EXPERIMENTS.md):
//
//	BenchmarkNoSync, BenchmarkSync, BenchmarkNestedSync, BenchmarkCall,
//	BenchmarkCallSync, BenchmarkNestedCallSync, BenchmarkMultiSync,
//	BenchmarkThreads            — Table 2 kernels × Figure 4 comparison
//	BenchmarkTradeoffs          — Figure 6 implementation variants
//	BenchmarkMacro              — Figure 5 macro-benchmark comparison
//	BenchmarkDirectLockUnlock   — the raw fast path (no interpreter),
//	                              the paper's "17 instructions" claim
//	BenchmarkDeflationAblation  — extension: cost of deflating eagerly
//
// The cmd/microbench, cmd/macrobench, cmd/lockchar and cmd/tradeoffs
// binaries produce the paper-formatted tables; these benches expose the
// same kernels through the standard Go tooling.
package thinlock

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thinlock/internal/arch"
	"thinlock/internal/bench"
	"thinlock/internal/core"
	"thinlock/internal/jcl"
	"thinlock/internal/lockapi"
	"thinlock/internal/object"
	"thinlock/internal/threading"
	"thinlock/internal/workloads"
)

// benchMicro runs one Table 2 kernel under every standard implementation.
func benchMicro(b *testing.B, kernel string, param int) {
	for _, f := range bench.StandardImpls() {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			m, err := bench.NewMicro(f.New())
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			if err := runKernelN(m, kernel, param, int64(b.N)); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func runKernelN(m *bench.Micro, kernel string, param int, n int64) error {
	switch kernel {
	case "NoSync":
		return m.NoSync(n)
	case "Sync":
		return m.Sync(n)
	case "NestedSync":
		return m.NestedSync(n)
	case "MixedSync":
		return m.MixedSync(n)
	case "MultiSync":
		return m.MultiSync(param, n)
	case "Call":
		return m.Call(n)
	case "CallSync":
		return m.CallSync(n)
	case "NestedCallSync":
		return m.NestedCallSync(n)
	case "Threads":
		per := n / int64(param)
		if per == 0 {
			per = 1
		}
		return m.Threads(param, per)
	}
	return fmt.Errorf("unknown kernel %s", kernel)
}

// BenchmarkNoSync measures the interpretation cost of the bare loop — the
// paper's reference point for all other kernels.
func BenchmarkNoSync(b *testing.B) { benchMicro(b, "NoSync", 0) }

// BenchmarkSync is Figure 4's headline: initial locking of an unlocked
// object (paper: ThinLock 3.7x JDK111, 1.8x IBM112).
func BenchmarkSync(b *testing.B) { benchMicro(b, "Sync", 0) }

// BenchmarkNestedSync measures nested locking (paper: IBM112 nearly
// matches ThinLock here).
func BenchmarkNestedSync(b *testing.B) { benchMicro(b, "NestedSync", 0) }

// BenchmarkMixedSync is the three-nested-locks kernel of §3.5.
func BenchmarkMixedSync(b *testing.B) { benchMicro(b, "MixedSync", 0) }

// BenchmarkCall is the non-synchronized method-call reference.
func BenchmarkCall(b *testing.B) { benchMicro(b, "Call", 0) }

// BenchmarkCallSync measures synchronized method invocation.
func BenchmarkCallSync(b *testing.B) { benchMicro(b, "CallSync", 0) }

// BenchmarkNestedCallSync measures nested synchronized method invocation.
func BenchmarkNestedCallSync(b *testing.B) { benchMicro(b, "NestedCallSync", 0) }

// BenchmarkMultiSync sweeps the lock working-set size. The paper's
// crossovers: IBM112 collapses past its 32 hot locks; JDK111 degrades as
// the monitor cache thrashes; ThinLock scales flat.
func BenchmarkMultiSync(b *testing.B) {
	for _, n := range []int{1, 32, 64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchMicro(b, "MultiSync", n)
		})
	}
}

// BenchmarkThreads sweeps contention: n threads hammering one object.
func BenchmarkThreads(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchMicro(b, "Threads", n)
		})
	}
}

// BenchmarkTradeoffs is Figure 6: the implementation-variant ladder on
// the Sync, MixedSync and CallSync kernels.
func BenchmarkTradeoffs(b *testing.B) {
	for _, kernel := range []string{"Sync", "MixedSync", "CallSync"} {
		b.Run(kernel, func(b *testing.B) {
			for _, f := range bench.VariantImpls() {
				f := f
				b.Run(f.Name, func(b *testing.B) {
					m, err := bench.NewMicro(f.New())
					if err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					if err := runKernelN(m, kernel, 0, int64(b.N)); err != nil {
						b.Fatal(err)
					}
				})
			}
		})
	}
}

// BenchmarkMacro is Figure 5: the workload suite under the three
// implementations. b.N counts whole workload runs at a small fixed size.
func BenchmarkMacro(b *testing.B) {
	for _, w := range workloads.All() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			for _, f := range bench.StandardImpls() {
				f := f
				b.Run(f.Name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						ctx := jcl.NewContext(f.New(), object.NewHeap())
						reg := threading.NewRegistry()
						t, err := reg.Attach("bench")
						if err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
						w.Run(ctx, t, 2)
					}
				})
			}
		})
	}
}

// BenchmarkDirectLockUnlock measures the raw lock/unlock pair through the
// Locker interface with no interpreter in the way — the closest Go
// analogue of the paper's inline fast-path instruction count. The floor
// rows time the bare hardware pair the lock word protocol costs at
// least (an acquire CAS, then either release store), and sync.Mutex is
// Go's own uncontended lock for comparison.
func BenchmarkDirectLockUnlock(b *testing.B) {
	impls := append(bench.StandardImpls(),
		bench.Factory{Name: "ThinLock-Inline", New: func() lockapi.Locker {
			return core.New(core.Options{Variant: core.VariantInline})
		}},
		bench.Factory{Name: "ThinLock-UnlkCAS", New: func() lockapi.Locker {
			return core.New(core.Options{Variant: core.VariantUnlockCAS})
		}})
	for _, f := range impls {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			l := f.New()
			heap := object.NewHeap()
			reg := threading.NewRegistry()
			t, err := reg.Attach("bench")
			if err != nil {
				b.Fatal(err)
			}
			o := heap.New("X")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Lock(t, o)
				if err := l.Unlock(t, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	floor := func(b *testing.B, name string, release func(*uint32, uint32)) {
		b.Run(name, func(b *testing.B) {
			var w uint32
			for i := 0; i < b.N; i++ {
				if !atomic.CompareAndSwapUint32(&w, 0, 1) {
					b.Fatal("floor CAS failed on a free word")
				}
				release(&w, 0)
			}
		})
	}
	b.Run("floor", func(b *testing.B) {
		floor(b, "CAS+StoreRelease", arch.StoreRelease)
		floor(b, "CAS+atomic.Store", atomic.StoreUint32)
	})
	b.Run("sync.Mutex", func(b *testing.B) {
		var mu sync.Mutex
		for i := 0; i < b.N; i++ {
			mu.Lock()
			mu.Unlock()
		}
	})
}

// BenchmarkDirectNestedLock measures the nested fast path (plain store).
func BenchmarkDirectNestedLock(b *testing.B) {
	for _, f := range bench.StandardImpls() {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			l := f.New()
			heap := object.NewHeap()
			reg := threading.NewRegistry()
			t, err := reg.Attach("bench")
			if err != nil {
				b.Fatal(err)
			}
			o := heap.New("X")
			l.Lock(t, o)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Lock(t, o)
				if err := l.Unlock(t, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkContentionPolicy compares the paper's spin-with-back-off
// against the queued-inflation extension on the pathological long-hold
// case of §2.3.4. b.N counts contention rounds with a 200µs hold.
func BenchmarkContentionPolicy(b *testing.B) {
	for _, queued := range []bool{false, true} {
		name := "Spin"
		if queued {
			name = "Queued"
		}
		b.Run(name, func(b *testing.B) {
			r, err := bench.RunContentionPolicy(queued, b.N, 2, 200*time.Microsecond)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(r.SpinRounds)/float64(b.N), "spin-pauses/round")
			b.ReportMetric(float64(r.Parks)/float64(b.N), "parks/round")
		})
	}
}

// BenchmarkDeflationAblation compares the default keep-inflated policy
// against the eager-deflation extension on an uncontended fat lock —
// quantifying why the paper's "stays inflated" discipline is cheap
// insurance (DESIGN.md §6).
func BenchmarkDeflationAblation(b *testing.B) {
	configs := []struct {
		name string
		opts core.Options
	}{
		{"KeepInflated", core.Options{}},
		{"EagerDeflation", core.Options{EnableDeflation: true}},
	}
	for _, cfg := range configs {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			l := core.New(cfg.opts)
			heap := object.NewHeap()
			reg := threading.NewRegistry()
			t, err := reg.Attach("bench")
			if err != nil {
				b.Fatal(err)
			}
			t2, err := reg.Attach("bench2")
			if err != nil {
				b.Fatal(err)
			}
			o := heap.New("X")
			// Inflate once by hand: t2 seeds contention.
			l.Lock(t, o)
			inflated := make(chan struct{})
			go func() {
				l.Lock(t2, o)
				if err := l.Unlock(t2, o); err != nil {
					b.Error(err)
				}
				close(inflated)
			}()
			for l.Stats().SpinRounds == 0 {
			}
			if err := l.Unlock(t, o); err != nil {
				b.Fatal(err)
			}
			<-inflated
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Lock(t, o)
				if err := l.Unlock(t, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
