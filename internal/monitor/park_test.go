package monitor

import (
	"runtime"
	"testing"
	"time"

	"thinlock/internal/threading"
)

// TestDoubleInterruptDuringWait: interrupts coalesce into one status and
// one permit, so interrupting a waiter twice wakes it once with
// ErrInterrupted and leaves the monitor consistent.
func TestDoubleInterruptDuringWait(t *testing.T) {
	t.Parallel()
	ths := newThreads(t, 1)
	m := New()
	errCh := make(chan error, 1)
	go func() {
		m.Enter(ths[0])
		_, err := m.Wait(ths[0], 0)
		errCh <- err
		if e := m.Exit(ths[0]); e != nil {
			t.Error(e)
		}
	}()
	waitFor(t, func() bool { return m.WaitSetLen() == 1 })
	ths[0].Interrupt()
	ths[0].Interrupt()
	select {
	case err := <-errCh:
		if err != threading.ErrInterrupted {
			t.Fatalf("err = %v, want ErrInterrupted", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("interrupt did not wake waiter")
	}
	waitFor(t, m.Quiescent)
}

// TestQueuesPinNoThreadAfterRound: after a round of contended entry,
// wait, timeout and notify, no slot of the entry queue's or wait set's
// backing array still points at a thread, so an abandoned monitor pins
// none of its former waiters.
func TestQueuesPinNoThreadAfterRound(t *testing.T) {
	t.Parallel()
	ths := newThreads(t, 4)
	m := New()
	done := make(chan struct{}, 3)
	m.Enter(ths[0])
	for i, d := range []time.Duration{0, 0, 5 * time.Millisecond} {
		go func(th *threading.Thread, d time.Duration) {
			m.Enter(th)
			if _, err := m.Wait(th, d); err != nil {
				t.Error(err)
			}
			if err := m.Exit(th); err != nil {
				t.Error(err)
			}
			done <- struct{}{}
		}(ths[i+1], d)
	}
	waitFor(t, func() bool { return m.EntryQueueLen() == 3 })
	if err := m.Exit(ths[0]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return m.WaitSetLen() == 3 })
	waitFor(t, func() bool { return m.WaitSetLen() == 2 }) // the timed waiter leaves
	m.Enter(ths[0])
	if err := m.Notify(ths[0]); err != nil {
		t.Fatal(err)
	}
	if err := m.NotifyAll(ths[0]); err != nil {
		t.Fatal(err)
	}
	if err := m.Exit(ths[0]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		<-done
	}
	m.latch.Lock()
	defer m.latch.Unlock()
	for name, q := range map[string][]*threading.Thread{"entry": m.entry, "waits": m.waits} {
		for i, th := range q[:cap(q)] {
			if th != nil {
				t.Errorf("%s slot %d of %d still pins %v", name, i, cap(q), th)
			}
		}
	}
}

// TestBlockingPathsDoNotAllocate holds the monitor's blocking paths to
// zero allocations in steady state: a blocked thread parks on its own
// wait record, and the queues reuse their backing arrays. Not parallel:
// AllocsPerRun reads process-wide allocation counters.
func TestBlockingPathsDoNotAllocate(t *testing.T) {
	ths := newThreads(t, 2)
	a, b := ths[0], ths[1]

	// rounds runs body on b once per round, for as long as the test
	// needs it.
	rounds := func(body func()) (start chan struct{}, done chan struct{}) {
		start, done = make(chan struct{}), make(chan struct{})
		go func() {
			for range start {
				body()
				done <- struct{}{}
			}
		}()
		t.Cleanup(func() { close(start) })
		return start, done
	}
	until := func(cond func() bool) {
		for !cond() {
			runtime.Gosched()
		}
	}
	// Each round observes its own blocking path: the queued entrant,
	// the parked waiter, or the timed Wait returning not-notified.
	check := func(name string, round func()) {
		t.Helper()
		round() // first round grows the queues
		if avg := testing.AllocsPerRun(100, round); avg != 0 {
			t.Errorf("%s allocates %.2f objects per round", name, avg)
		}
	}

	enter := New()
	start, done := rounds(func() {
		enter.Enter(b)
		if err := enter.Exit(b); err != nil {
			t.Error(err)
		}
	})
	check("contended enter/exit handoff", func() {
		enter.Enter(a)
		start <- struct{}{}
		until(func() bool { return enter.EntryQueueLen() == 1 })
		if err := enter.Exit(a); err != nil {
			t.Error(err)
		}
		<-done
	})

	wait := New()
	start, done = rounds(func() {
		wait.Enter(b)
		if notified, err := wait.Wait(b, 0); !notified || err != nil {
			t.Errorf("Wait = %v, %v; want notified", notified, err)
		}
		if err := wait.Exit(b); err != nil {
			t.Error(err)
		}
	})
	check("wait/notify round", func() {
		start <- struct{}{}
		until(func() bool { return wait.WaitSetLen() == 1 })
		wait.Enter(a)
		if err := wait.Notify(a); err != nil {
			t.Error(err)
		}
		if err := wait.Exit(a); err != nil {
			t.Error(err)
		}
		<-done
	})

	timed := New()
	timed.Enter(a)
	check("timed wait", func() {
		if notified, err := timed.Wait(a, 20*time.Microsecond); notified || err != nil {
			t.Errorf("Wait = %v, %v; want a timeout", notified, err)
		}
	})
	if err := timed.Exit(a); err != nil {
		t.Fatal(err)
	}
}
