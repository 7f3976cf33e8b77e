package core

import (
	"testing"

	"thinlock/internal/arch"
)

// TestVariantSemanticsMatrix drives the full single-threaded semantic
// surface (nesting, overflow inflation, illegal unlocks, wait-timeout)
// through every variant × CPU model combination, so every specialized
// lock/unlock code path is exercised.
func TestVariantSemanticsMatrix(t *testing.T) {
	t.Parallel()
	variants := []Variant{
		VariantStandard, VariantInline, VariantFnCall,
		VariantMPSync, VariantKernelCAS, VariantUnlockCAS,
	}
	cpus := []arch.CPU{arch.PowerPCUP, arch.PowerPCMP, arch.POWER}
	for _, v := range variants {
		for _, cpu := range cpus {
			v, cpu := v, cpu
			t.Run(v.String()+"/"+cpu.String(), func(t *testing.T) {
				t.Parallel()
				f := newFixture(t, Options{Variant: v, CPU: cpu})
				th := f.thread(t)
				a, b := f.heap.New("A"), f.heap.New("B")

				// Balanced nesting to depth 5 on a, interleaved with b.
				for i := 0; i < 5; i++ {
					f.l.Lock(th, a)
					f.l.Lock(th, b)
				}
				for i := 0; i < 5; i++ {
					if err := f.l.Unlock(th, b); err != nil {
						t.Fatal(err)
					}
					if err := f.l.Unlock(th, a); err != nil {
						t.Fatal(err)
					}
				}
				if !IsUnlocked(a.Header()) || !IsUnlocked(b.Header()) {
					t.Fatalf("headers not released: a=%#x b=%#x", a.Header(), b.Header())
				}

				// Illegal unlock must not perturb anything.
				if err := f.l.Unlock(th, a); err != ErrIllegalMonitorState {
					t.Fatalf("unlock of unlocked object: err = %v", err)
				}

				// Count overflow inflates and keeps working.
				o := f.heap.New("O")
				for i := 0; i < 257; i++ {
					f.l.Lock(th, o)
				}
				if !IsInflated(o.Header()) {
					t.Fatal("overflow did not inflate")
				}
				for i := 0; i < 257; i++ {
					if err := f.l.Unlock(th, o); err != nil {
						t.Fatal(err)
					}
				}
				// Fat lock/unlock cycle after inflation (fat fast and
				// slow unlock paths per variant).
				f.l.Lock(th, o)
				f.l.Lock(th, o)
				if err := f.l.Unlock(th, o); err != nil {
					t.Fatal(err)
				}
				if err := f.l.Unlock(th, o); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestNOPVariantIgnoresEverything pins the NOP contract across the full
// method surface.
func TestNOPVariantIgnoresEverything(t *testing.T) {
	t.Parallel()
	f := newFixture(t, Options{Variant: VariantNOP})
	th := f.thread(t)
	o := f.heap.New("X")
	for i := 0; i < 300; i++ { // past any count limit: still no inflation
		f.l.Lock(th, o)
	}
	if o.Header() != o.Misc() {
		t.Fatal("NOP wrote the header")
	}
	if err := f.l.Unlock(th, o); err != nil {
		t.Fatal(err)
	}
	if s := f.l.Stats(); s.Inflations() != 0 || s.FatLocks != 0 {
		t.Fatalf("NOP produced stats: %+v", s)
	}
}

// TestStandardVariantOnPOWERUsesKernelCAS checks that the dynamic machine
// test routes POWER through the kernel service (observable only through
// correct mutual exclusion; the path itself is exercised here
// single-threaded with a contention case in the CPU-model matrix test).
func TestStandardVariantOnPOWERUsesKernelCAS(t *testing.T) {
	t.Parallel()
	f := newFixture(t, Options{CPU: arch.POWER})
	th := f.thread(t)
	o := f.heap.New("X")
	f.l.Lock(th, o)
	if ThinOwner(o.Header()) != th.Index() {
		t.Fatal("kernel-CAS lock did not install owner")
	}
	if err := f.l.Unlock(th, o); err != nil {
		t.Fatal(err)
	}
}

// TestWaitOnVariantLocks checks the wait/notify path under the MP and
// kernel variants (inflation by wait plus fat unlock with fences).
func TestWaitOnVariantLocks(t *testing.T) {
	t.Parallel()
	for _, v := range []Variant{VariantMPSync, VariantKernelCAS, VariantUnlockCAS} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			f := newFixture(t, Options{Variant: v})
			th := f.thread(t)
			o := f.heap.New("X")
			f.l.Lock(th, o)
			notified, err := f.l.Wait(th, o, 1)
			if err != nil {
				t.Fatal(err)
			}
			if notified {
				t.Fatal("notified with no notifier")
			}
			if !IsInflated(o.Header()) {
				t.Fatal("wait did not inflate")
			}
			if err := f.l.Unlock(th, o); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPlainPathSelection pins which configurations run the one-frame
// fast path in Lock and Unlock. Queued inflation must never take it:
// its unlock loads the FLC bit after the release, which needs the
// sequentially consistent store the plain path replaces.
func TestPlainPathSelection(t *testing.T) {
	t.Parallel()
	tests := []struct {
		opts Options
		want bool
	}{
		{Options{}, true},
		{Options{Variant: VariantInline}, true},
		{Options{Variant: VariantInline, CPU: arch.POWER}, true},
		{Options{EnableDeflation: true}, true},
		{Options{RecycleMonitors: true}, true},
		{Options{CountBits: 2}, true},
		{Options{QueuedInflation: true}, false},
		{Options{Variant: VariantInline, QueuedInflation: true}, false},
		{Options{CPU: arch.PowerPCMP}, false},
		{Options{CPU: arch.POWER}, false},
		{Options{Variant: VariantFnCall}, false},
		{Options{Variant: VariantMPSync}, false},
		{Options{Variant: VariantKernelCAS}, false},
		{Options{Variant: VariantUnlockCAS}, false},
		{Options{Variant: VariantNOP}, false},
	}
	for _, tt := range tests {
		if got := New(tt.opts).plain; got != tt.want {
			t.Errorf("New(%+v).plain = %v, want %v", tt.opts, got, tt.want)
		}
	}
}
