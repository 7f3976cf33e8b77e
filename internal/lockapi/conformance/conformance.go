// Package conformance is a reusable behavioural test suite for
// lockapi.Locker implementations. Every implementation in the
// repository — the paper's thin locks and their queued/deflation/
// narrow-count variants, both historical baselines, and the reference
// oracle — must exhibit the same observable monitor semantics; this
// package states those semantics once, as executable subtests, instead
// of each implementation's test file restating a drifting subset.
//
// Usage, from any implementation's test package:
//
//	func TestConformance(t *testing.T) {
//		conformance.Run(t, func() lockapi.Locker { return New(...) })
//	}
//
// The factory must return a fresh, independent instance per call: the
// suite runs its subtests in parallel, each against its own instance,
// registry and heap.
package conformance

import (
	"testing"
	"time"

	"thinlock/internal/lockapi"
	"thinlock/internal/monitor"
	"thinlock/internal/object"
	"thinlock/internal/testutil"
	"thinlock/internal/threading"
)

// fixture is one subtest's isolated world.
type fixture struct {
	l    lockapi.Locker
	reg  *threading.Registry
	heap *object.Heap
}

func newFixture(t *testing.T, mk func() lockapi.Locker) *fixture {
	t.Helper()
	return &fixture{l: mk(), reg: threading.NewRegistry(), heap: object.NewHeap()}
}

func (f *fixture) thread(t *testing.T, name string) *threading.Thread {
	t.Helper()
	th, err := f.reg.Attach(name)
	if err != nil {
		t.Fatalf("attach %s: %v", name, err)
	}
	return th
}

// Run executes the full conformance suite against fresh instances built
// by mk.
func Run(t *testing.T, mk func() lockapi.Locker) {
	for _, tc := range []struct {
		name string
		fn   func(*testing.T, func() lockapi.Locker)
	}{
		{"IllegalMonitorState", testIllegalMonitorState},
		{"NestedBalance", testNestedBalance},
		{"WaitTimeout", testWaitTimeout},
		{"WaitNotify", testWaitNotify},
		{"NotifyAllWakesEveryWaiter", testNotifyAll},
		{"NotifyWithoutWaiters", testNotifyWithoutWaiters},
		{"WaitInterrupt", testWaitInterrupt},
		{"WaitWithPendingInterrupt", testWaitPendingInterrupt},
		{"WaitReacquiresDepth", testWaitReacquiresDepth},
		{"MutualExclusion", testMutualExclusion},
		{"SecondThreadAfterRepeatOwner", testSecondThreadAfterRepeatOwner},
		{"WaitAfterRepeatOwnership", testWaitAfterRepeatOwnership},
		{"InterruptDuringOwnershipTransfer", testInterruptDuringOwnershipTransfer},
		{"ContendedDeepNesting", testContendedDeepNesting},
		{"StalePermitNeverGrantsEntry", testStalePermitNeverGrantsEntry},
		{"StalePermitNeverNotifies", testStalePermitNeverNotifies},
		{"InterruptDuringEntry", testInterruptDuringEntry},
		{"InterruptRacingNotify", testInterruptRacingNotify},
		{"TimedWaitNoStaleTick", testTimedWaitNoStaleTick},
		{"DeflateEnterRace", testDeflateEnterRace},
		{"DeflateVsWaiterPinsMonitor", testDeflateVsWait},
		{"ReinflateAfterDeflate", testReinflateAfterDeflate},
		{"NoDeflateWhileNested", testNoDeflateWhileNested},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			tc.fn(t, mk)
		})
	}
}

// testIllegalMonitorState: every monitor operation except Lock must
// return ErrIllegalMonitorState when the caller does not own the
// monitor — whether it was never locked, or is locked by someone else.
func testIllegalMonitorState(t *testing.T, mk func() lockapi.Locker) {
	f := newFixture(t, mk)
	a, b := f.thread(t, "a"), f.thread(t, "b")
	o := f.heap.New("conf")

	for _, phase := range []string{"unlocked", "locked-by-other"} {
		if phase == "locked-by-other" {
			f.l.Lock(b, o)
		}
		if err := f.l.Unlock(a, o); err != monitor.ErrIllegalMonitorState {
			t.Errorf("%s: Unlock err = %v, want ErrIllegalMonitorState", phase, err)
		}
		if _, err := f.l.Wait(a, o, time.Millisecond); err != monitor.ErrIllegalMonitorState {
			t.Errorf("%s: Wait err = %v, want ErrIllegalMonitorState", phase, err)
		}
		if err := f.l.Notify(a, o); err != monitor.ErrIllegalMonitorState {
			t.Errorf("%s: Notify err = %v, want ErrIllegalMonitorState", phase, err)
		}
		if err := f.l.NotifyAll(a, o); err != monitor.ErrIllegalMonitorState {
			t.Errorf("%s: NotifyAll err = %v, want ErrIllegalMonitorState", phase, err)
		}
	}
	if err := f.l.Unlock(b, o); err != nil {
		t.Fatalf("owner unlock: %v", err)
	}
}

// testNestedBalance: recursive locking to a depth past any thin-count
// width must unwind with exactly as many successful unlocks, after
// which one more unlock is illegal and another thread can acquire.
func testNestedBalance(t *testing.T, mk func() lockapi.Locker) {
	f := newFixture(t, mk)
	a, b := f.thread(t, "a"), f.thread(t, "b")
	o := f.heap.New("conf")

	const depth = 300 // > 256: crosses every count-overflow boundary
	for i := 0; i < depth; i++ {
		f.l.Lock(a, o)
	}
	for i := 0; i < depth; i++ {
		if err := f.l.Unlock(a, o); err != nil {
			t.Fatalf("unlock %d: %v", i, err)
		}
	}
	if err := f.l.Unlock(a, o); err != monitor.ErrIllegalMonitorState {
		t.Fatalf("extra unlock err = %v, want ErrIllegalMonitorState", err)
	}
	f.l.Lock(b, o) // must not block: fully released
	if err := f.l.Unlock(b, o); err != nil {
		t.Fatalf("b unlock: %v", err)
	}
}

// testWaitTimeout: a timed wait with no notifier must return within a
// bounded time with notified == false and the monitor re-acquired.
func testWaitTimeout(t *testing.T, mk func() lockapi.Locker) {
	f := newFixture(t, mk)
	a := f.thread(t, "a")
	o := f.heap.New("conf")

	f.l.Lock(a, o)
	start := time.Now()
	notified, err := f.l.Wait(a, o, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if notified {
		t.Error("notified = true on a timeout")
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Errorf("Wait returned after %v, before the 10ms timeout", elapsed)
	}
	// The monitor must be re-acquired: this unlock is the only release.
	if err := f.l.Unlock(a, o); err != nil {
		t.Fatalf("unlock after wait: %v", err)
	}
	if err := f.l.Unlock(a, o); err != monitor.ErrIllegalMonitorState {
		t.Fatalf("second unlock err = %v, want ErrIllegalMonitorState", err)
	}
}

// testWaitNotify: a notified waiter must report notified == true and
// resume holding the monitor.
func testWaitNotify(t *testing.T, mk func() lockapi.Locker) {
	f := newFixture(t, mk)
	main := f.thread(t, "main")
	o := f.heap.New("conf")

	waiting := make(chan struct{})
	result := make(chan bool, 1)
	done, err := f.reg.Go("waiter", func(w *threading.Thread) {
		f.l.Lock(w, o)
		close(waiting)
		notified, err := f.l.Wait(w, o, 0)
		if err != nil {
			t.Errorf("waiter: %v", err)
		}
		if err := f.l.Unlock(w, o); err != nil {
			t.Errorf("waiter unlock: %v", err)
		}
		result <- notified
	})
	if err != nil {
		t.Fatal(err)
	}
	<-waiting
	// The waiter holds the monitor until it blocks; acquiring here
	// guarantees it is inside Wait before the notify is sent.
	f.l.Lock(main, o)
	if err := f.l.Notify(main, o); err != nil {
		t.Fatalf("notify: %v", err)
	}
	if err := f.l.Unlock(main, o); err != nil {
		t.Fatalf("unlock: %v", err)
	}
	<-done
	if !<-result {
		t.Error("waiter reported notified = false after Notify")
	}
}

// testNotifyAll: NotifyAll must wake every waiter; none may be left for
// a timeout.
func testNotifyAll(t *testing.T, mk func() lockapi.Locker) {
	f := newFixture(t, mk)
	main := f.thread(t, "main")
	o := f.heap.New("conf")

	const waiters = 4
	entered := make(chan struct{}, waiters)
	results := make(chan bool, waiters)
	var dones []<-chan struct{}
	for i := 0; i < waiters; i++ {
		done, err := f.reg.Go("waiter", func(w *threading.Thread) {
			f.l.Lock(w, o)
			entered <- struct{}{}
			notified, err := f.l.Wait(w, o, 0)
			if err != nil {
				t.Errorf("waiter: %v", err)
			}
			if err := f.l.Unlock(w, o); err != nil {
				t.Errorf("waiter unlock: %v", err)
			}
			results <- notified
		})
		if err != nil {
			t.Fatal(err)
		}
		dones = append(dones, done)
	}
	for i := 0; i < waiters; i++ {
		<-entered
	}
	f.l.Lock(main, o) // all waiters are inside Wait once this acquires
	if err := f.l.NotifyAll(main, o); err != nil {
		t.Fatalf("notifyAll: %v", err)
	}
	if err := f.l.Unlock(main, o); err != nil {
		t.Fatalf("unlock: %v", err)
	}
	for _, done := range dones {
		<-done
	}
	for i := 0; i < waiters; i++ {
		if !<-results {
			t.Error("a waiter reported notified = false after NotifyAll")
		}
	}
}

// testNotifyWithoutWaiters: notifying an owned monitor with an empty
// wait set is a legal no-op, and must not leave a phantom wakeup for a
// later waiter (the next timed wait still times out).
func testNotifyWithoutWaiters(t *testing.T, mk func() lockapi.Locker) {
	f := newFixture(t, mk)
	a := f.thread(t, "a")
	o := f.heap.New("conf")

	f.l.Lock(a, o)
	if err := f.l.Notify(a, o); err != nil {
		t.Fatalf("notify: %v", err)
	}
	if err := f.l.NotifyAll(a, o); err != nil {
		t.Fatalf("notifyAll: %v", err)
	}
	notified, err := f.l.Wait(a, o, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if notified {
		t.Error("notify with no waiters was buffered into a later wait")
	}
	if err := f.l.Unlock(a, o); err != nil {
		t.Fatalf("unlock: %v", err)
	}
}

// testWaitInterrupt: interrupting a waiting thread must wake it with
// threading.ErrInterrupted, clear the interrupt flag, and leave it
// holding the monitor.
func testWaitInterrupt(t *testing.T, mk func() lockapi.Locker) {
	f := newFixture(t, mk)
	main := f.thread(t, "main")
	o := f.heap.New("conf")

	waiting := make(chan struct{})
	var waiter *threading.Thread
	ready := make(chan struct{})
	done, err := f.reg.Go("waiter", func(w *threading.Thread) {
		waiter = w
		close(ready)
		f.l.Lock(w, o)
		close(waiting)
		if _, err := f.l.Wait(w, o, 0); err != threading.ErrInterrupted {
			t.Errorf("Wait err = %v, want ErrInterrupted", err)
		}
		if w.IsInterrupted() {
			t.Error("interrupt flag not cleared by the interrupted wait")
		}
		if err := f.l.Unlock(w, o); err != nil {
			t.Errorf("unlock after interrupted wait: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	<-ready
	<-waiting
	f.l.Lock(main, o) // the waiter is inside Wait once this acquires
	if err := f.l.Unlock(main, o); err != nil {
		t.Fatal(err)
	}
	waiter.Interrupt()
	select {
	case <-done:
	case <-time.After(testutil.DefaultWaitTimeout):
		t.Fatal("interrupted waiter never returned")
	}
}

// testWaitPendingInterrupt: a wait by an already-interrupted thread
// must fail immediately with ErrInterrupted, consuming the flag, and
// without releasing the monitor.
func testWaitPendingInterrupt(t *testing.T, mk func() lockapi.Locker) {
	f := newFixture(t, mk)
	a := f.thread(t, "a")
	o := f.heap.New("conf")

	f.l.Lock(a, o)
	a.Interrupt()
	start := time.Now()
	if _, err := f.l.Wait(a, o, 0); err != threading.ErrInterrupted {
		t.Fatalf("Wait err = %v, want ErrInterrupted", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("pending-interrupt wait blocked for %v", elapsed)
	}
	if a.IsInterrupted() {
		t.Error("interrupt flag not consumed")
	}
	if err := f.l.Unlock(a, o); err != nil {
		t.Fatalf("unlock: %v", err)
	}
}

// testWaitReacquiresDepth: waiting at nesting depth 3 must re-acquire
// at depth 3 — the wait releases the monitor *completely* (another
// thread can lock it meanwhile) yet restores the full recursion count.
func testWaitReacquiresDepth(t *testing.T, mk func() lockapi.Locker) {
	f := newFixture(t, mk)
	main := f.thread(t, "main")
	o := f.heap.New("conf")

	waiting := make(chan struct{})
	done, err := f.reg.Go("waiter", func(w *threading.Thread) {
		f.l.Lock(w, o)
		f.l.Lock(w, o)
		f.l.Lock(w, o)
		close(waiting)
		if _, err := f.l.Wait(w, o, 0); err != nil {
			t.Errorf("wait: %v", err)
		}
		for i := 0; i < 3; i++ {
			if err := f.l.Unlock(w, o); err != nil {
				t.Errorf("unlock %d after wait: %v", i, err)
			}
		}
		if err := f.l.Unlock(w, o); err != monitor.ErrIllegalMonitorState {
			t.Errorf("depth-4 unlock err = %v, want ErrIllegalMonitorState", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	<-waiting
	// The wait must have released all three levels: this lock succeeds.
	f.l.Lock(main, o)
	if err := f.l.Notify(main, o); err != nil {
		t.Fatalf("notify: %v", err)
	}
	if err := f.l.Unlock(main, o); err != nil {
		t.Fatalf("unlock: %v", err)
	}
	select {
	case <-done:
	case <-time.After(testutil.DefaultWaitTimeout):
		t.Fatal("waiter never resumed")
	}
}

// testSecondThreadAfterRepeatOwner: an object locked repeatedly by one
// thread — the pattern a reservation-based implementation optimizes for
// — must still hand over cleanly when a second thread arrives. For the
// biased locker this is the basic revocation path: thread b's first
// acquisition must revoke a's reservation, wait out the handshake, and
// acquire; a's subsequent re-acquisitions go through the conventional
// word the revoker published.
func testSecondThreadAfterRepeatOwner(t *testing.T, mk func() lockapi.Locker) {
	f := newFixture(t, mk)
	a, b := f.thread(t, "a"), f.thread(t, "b")
	o := f.heap.New("conf")

	// Establish single-owner history (installs a reservation where
	// supported).
	for i := 0; i < 10; i++ {
		f.l.Lock(a, o)
		if err := f.l.Unlock(a, o); err != nil {
			t.Fatalf("owner round %d unlock: %v", i, err)
		}
	}
	// Second thread takes over.
	f.l.Lock(b, o)
	if err := f.l.Unlock(a, o); err != monitor.ErrIllegalMonitorState {
		t.Fatalf("a unlock while b owns: err = %v, want ErrIllegalMonitorState", err)
	}
	if err := f.l.Unlock(b, o); err != nil {
		t.Fatalf("b unlock: %v", err)
	}
	// The original owner must be able to come back.
	f.l.Lock(a, o)
	if err := f.l.Unlock(a, o); err != nil {
		t.Fatalf("a relock unlock: %v", err)
	}
}

// testWaitAfterRepeatOwnership: a timed wait at nesting depth 2 on an
// object the thread has locked and released before. A reservation-based
// implementation must revoke its own bias and inflate, carrying the
// exact depth into the fat lock; the wait then times out and re-acquires
// at depth 2 as usual.
func testWaitAfterRepeatOwnership(t *testing.T, mk func() lockapi.Locker) {
	f := newFixture(t, mk)
	a, b := f.thread(t, "a"), f.thread(t, "b")
	o := f.heap.New("conf")

	f.l.Lock(a, o)
	if err := f.l.Unlock(a, o); err != nil {
		t.Fatalf("warmup unlock: %v", err)
	}
	f.l.Lock(a, o)
	f.l.Lock(a, o)
	notified, err := f.l.Wait(a, o, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if notified {
		t.Error("notified = true on a timeout")
	}
	for i := 0; i < 2; i++ {
		if err := f.l.Unlock(a, o); err != nil {
			t.Fatalf("unlock %d after wait: %v", i, err)
		}
	}
	if err := f.l.Unlock(a, o); err != monitor.ErrIllegalMonitorState {
		t.Fatalf("extra unlock err = %v, want ErrIllegalMonitorState", err)
	}
	f.l.Lock(b, o) // fully released: must not block
	if err := f.l.Unlock(b, o); err != nil {
		t.Fatalf("b unlock: %v", err)
	}
}

// testInterruptDuringOwnershipTransfer: a thread waiting on an object it
// had reserved (its wait forced the revoke-and-inflate) is interrupted
// while a second thread owns the monitor. The interrupt must cut through
// whatever lock shape the handover left behind: the waiter wakes with
// ErrInterrupted, re-acquires after the owner releases, and unwinds.
func testInterruptDuringOwnershipTransfer(t *testing.T, mk func() lockapi.Locker) {
	f := newFixture(t, mk)
	main := f.thread(t, "main")
	o := f.heap.New("conf")

	waiting := make(chan struct{})
	var waiter *threading.Thread
	ready := make(chan struct{})
	done, err := f.reg.Go("waiter", func(w *threading.Thread) {
		waiter = w
		close(ready)
		f.l.Lock(w, o)
		if err := f.l.Unlock(w, o); err != nil { // establish reservation history
			t.Errorf("warmup unlock: %v", err)
		}
		f.l.Lock(w, o)
		close(waiting)
		if _, err := f.l.Wait(w, o, 0); err != threading.ErrInterrupted {
			t.Errorf("Wait err = %v, want ErrInterrupted", err)
		}
		if err := f.l.Unlock(w, o); err != nil {
			t.Errorf("unlock after interrupted wait: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	<-ready
	<-waiting
	f.l.Lock(main, o) // the waiter is inside Wait once this acquires
	waiter.Interrupt()
	// Hold the monitor briefly so the interrupted waiter's re-acquisition
	// has to queue behind a live owner.
	time.Sleep(2 * time.Millisecond)
	if err := f.l.Unlock(main, o); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(testutil.DefaultWaitTimeout):
		t.Fatal("interrupted waiter never returned")
	}
}

// testContendedDeepNesting: one thread nests past every count-field
// boundary (thin counts, biased depth caps) while a second thread is
// already spinning for the lock; the deep owner must unwind fully and
// the contender must then acquire. This crosses the overflow
// self-revocation (biased) and count-overflow inflation (thin) paths
// while contention is live rather than in isolation.
func testContendedDeepNesting(t *testing.T, mk func() lockapi.Locker) {
	f := newFixture(t, mk)
	o := f.heap.New("conf")

	const depth = 200 // > 128: past the biased depth cap and thin counts
	acquired := make(chan struct{})
	deepDone, err := f.reg.Go("deep", func(w *threading.Thread) {
		f.l.Lock(w, o)
		if err := f.l.Unlock(w, o); err != nil { // reservation history
			t.Errorf("warmup unlock: %v", err)
		}
		f.l.Lock(w, o)
		close(acquired)
		for i := 1; i < depth; i++ {
			f.l.Lock(w, o)
		}
		time.Sleep(time.Millisecond) // let the contender reach its spin
		for i := 0; i < depth; i++ {
			if err := f.l.Unlock(w, o); err != nil {
				t.Errorf("unlock %d: %v", i, err)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	<-acquired
	contenderDone, err := f.reg.Go("contender", func(w *threading.Thread) {
		f.l.Lock(w, o)
		if err := f.l.Unlock(w, o); err != nil {
			t.Errorf("contender unlock: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, done := range []<-chan struct{}{deepDone, contenderDone} {
		select {
		case <-done:
		case <-time.After(testutil.DefaultWaitTimeout):
			t.Fatal("deep nesting under contention never completed")
		}
	}
}

// testMutualExclusion: a brief stress of the lock path proper — N
// threads each increment an unprotected counter inside the monitor;
// every increment must survive.
func testMutualExclusion(t *testing.T, mk func() lockapi.Locker) {
	f := newFixture(t, mk)
	o := f.heap.New("conf")

	const (
		threads = 4
		rounds  = 200
	)
	counter := 0 // plain int: exclusivity tripwire (and -race sentinel)
	var dones []<-chan struct{}
	for i := 0; i < threads; i++ {
		done, err := f.reg.Go("worker", func(w *threading.Thread) {
			for r := 0; r < rounds; r++ {
				f.l.Lock(w, o)
				counter++
				if err := f.l.Unlock(w, o); err != nil {
					t.Errorf("unlock: %v", err)
					return
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		dones = append(dones, done)
	}
	for _, done := range dones {
		select {
		case <-done:
		case <-time.After(testutil.DefaultWaitTimeout):
			t.Fatal("worker never finished")
		}
	}
	if counter != threads*rounds {
		t.Fatalf("counter = %d, want %d (lost updates: mutual exclusion broken)",
			counter, threads*rounds)
	}
}
