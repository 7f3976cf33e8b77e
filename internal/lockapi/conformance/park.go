package conformance

import (
	"testing"
	"time"

	"thinlock/internal/lockapi"
	"thinlock/internal/object"
	"thinlock/internal/testutil"
	"thinlock/internal/threading"
)

// The park discipline: blocked threads park on their own Parker, and
// every park re-checks its condition on waking. A permit can arrive
// that no lock operation sent — a biased revoker unparks threads that
// may not be parked, an unpark can land after its thread moved on — and
// it must never stand in for a grant or a notification.

// inflate makes a's lock on o a fat one where the implementation has
// thin locks (a wait inflates), so contenders queue on the monitor.
func inflate(t *testing.T, f *fixture, a *threading.Thread, o *object.Object) {
	t.Helper()
	if _, err := f.l.Wait(a, o, time.Millisecond); err != nil {
		t.Fatalf("inflating wait: %v", err)
	}
}

// stillBlocked reports a failure if done closes within a short grace
// period.
func stillBlocked(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
		t.Fatalf("%s returned while the lock was held elsewhere", what)
	case <-time.After(5 * time.Millisecond):
	}
}

// awaitDone fails the test if done does not close in time.
func awaitDone(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(testutil.DefaultWaitTimeout):
		t.Fatalf("%s never returned", what)
	}
}

// testStalePermitNeverGrantsEntry: a thread holding a permit from
// nowhere blocks on a held lock until the owner releases it, and then
// owns it.
func testStalePermitNeverGrantsEntry(t *testing.T, mk func() lockapi.Locker) {
	f := newFixture(t, mk)
	a, b := f.thread(t, "a"), f.thread(t, "b")
	o := f.heap.New("conf")
	f.l.Lock(a, o)
	inflate(t, f, a, o)

	acquired, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		b.Parker().Unpark()
		f.l.Lock(b, o)
		close(acquired)
		if err := f.l.Unlock(b, o); err != nil {
			t.Errorf("entrant does not own the lock it entered: %v", err)
		}
	}()
	stillBlocked(t, acquired, "Lock with a stale permit")
	if err := f.l.Notify(a, o); err != nil {
		t.Fatalf("owner lost the lock to a stale permit: %v", err)
	}
	if err := f.l.Unlock(a, o); err != nil {
		t.Fatal(err)
	}
	awaitDone(t, done, "entrant")
}

// testStalePermitNeverNotifies: a permit from nowhere neither ends a
// timed wait early nor makes an untimed wait report a notification it
// did not get.
func testStalePermitNeverNotifies(t *testing.T, mk func() lockapi.Locker) {
	f := newFixture(t, mk)
	main, a := f.thread(t, "main"), f.thread(t, "a")
	o := f.heap.New("conf")

	f.l.Lock(a, o)
	a.Parker().Unpark()
	start := time.Now()
	notified, err := f.l.Wait(a, o, 10*time.Millisecond)
	if err != nil || notified {
		t.Fatalf("timed Wait with a stale permit = %v, %v; want a timeout", notified, err)
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("timed Wait with a stale permit returned after %v, before its 10ms timeout", elapsed)
	}

	waiting, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		a.Parker().Unpark()
		close(waiting)
		if notified, err := f.l.Wait(a, o, 0); !notified || err != nil {
			t.Errorf("Wait = %v, %v; want notified", notified, err)
		}
		if err := f.l.Unlock(a, o); err != nil {
			t.Errorf("waiter unlock: %v", err)
		}
	}()
	<-waiting
	f.l.Lock(main, o) // the waiter is inside Wait once this acquires
	if err := f.l.Unlock(main, o); err != nil {
		t.Fatal(err)
	}
	stillBlocked(t, done, "untimed Wait with a stale permit")
	f.l.Lock(main, o)
	if err := f.l.Notify(main, o); err != nil {
		t.Fatal(err)
	}
	if err := f.l.Unlock(main, o); err != nil {
		t.Fatal(err)
	}
	awaitDone(t, done, "notified waiter")
}

// testInterruptDuringEntry: lock entry is not interruptible, as Java's
// monitorenter is not. An interrupted entrant keeps waiting, acquires
// once the owner releases, and still finds its interrupt status set.
func testInterruptDuringEntry(t *testing.T, mk func() lockapi.Locker) {
	f := newFixture(t, mk)
	a, b := f.thread(t, "a"), f.thread(t, "b")
	o := f.heap.New("conf")
	f.l.Lock(a, o)
	inflate(t, f, a, o)

	acquired, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		f.l.Lock(b, o)
		close(acquired)
		if !b.Interrupted() {
			t.Error("lock entry consumed the interrupt status")
		}
		if err := f.l.Unlock(b, o); err != nil {
			t.Errorf("entrant unlock: %v", err)
		}
	}()
	time.Sleep(5 * time.Millisecond) // let b block
	b.Interrupt()
	stillBlocked(t, acquired, "interrupted Lock")
	if err := f.l.Notify(a, o); err != nil {
		t.Fatalf("owner lost the lock to an interrupt: %v", err)
	}
	if err := f.l.Unlock(a, o); err != nil {
		t.Fatal(err)
	}
	awaitDone(t, done, "interrupted entrant")
}

// testInterruptRacingNotify: of two waiters, the first is interrupted
// while the notifier, holding the lock, notifies once. The first waiter
// either throws (ErrInterrupted, not notified, status cleared) or
// returns notified with the interrupt still pending; it never both
// reports the notification and throws, and never loses the interrupt.
// If it throws, the notification must have gone to the second waiter:
// as in Java, an interrupt cannot swallow a notification.
func testInterruptRacingNotify(t *testing.T, mk func() lockapi.Locker) {
	f := newFixture(t, mk)
	main := f.thread(t, "main")
	o := f.heap.New("conf")

	type result struct {
		notified, pending bool
		err               error
	}
	wait := func(w *threading.Thread) <-chan result {
		waiting, res := make(chan struct{}), make(chan result, 1)
		go func() {
			f.l.Lock(w, o)
			close(waiting)
			notified, err := f.l.Wait(w, o, 0)
			pending := w.Interrupted()
			if uerr := f.l.Unlock(w, o); uerr != nil {
				t.Errorf("waiter unlock: %v", uerr)
			}
			res <- result{notified, pending, err}
		}()
		<-waiting
		f.l.Lock(main, o) // the waiter is inside Wait once this acquires
		if err := f.l.Unlock(main, o); err != nil {
			t.Fatal(err)
		}
		return res
	}
	get := func(res <-chan result, who string) result {
		t.Helper()
		select {
		case r := <-res:
			return r
		case <-time.After(testutil.DefaultWaitTimeout):
			t.Fatalf("%s never returned", who)
			return result{}
		}
	}

	for i := 0; i < 20; i++ {
		a, b := f.thread(t, "a"), f.thread(t, "b")
		resA := wait(a)
		resB := wait(b)
		f.l.Lock(main, o)
		interrupted := make(chan struct{})
		go func() {
			a.Interrupt()
			close(interrupted)
		}()
		if err := f.l.Notify(main, o); err != nil {
			t.Fatal(err)
		}
		<-interrupted
		if err := f.l.Unlock(main, o); err != nil {
			t.Fatal(err)
		}
		ra := get(resA, "interrupted waiter")
		switch {
		case ra.err == threading.ErrInterrupted && !ra.notified && !ra.pending:
			// The notification went to b.
		case ra.err == nil && ra.notified && ra.pending:
			// a took the notification; b is still waiting.
			f.l.Lock(main, o)
			if err := f.l.Notify(main, o); err != nil {
				t.Fatal(err)
			}
			if err := f.l.Unlock(main, o); err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatalf("round %d: Wait = %v, %v with interrupt pending %v; want (false, ErrInterrupted, cleared) or (true, nil, pending)",
				i, ra.notified, ra.err, ra.pending)
		}
		if rb := get(resB, "second waiter (a notification was lost)"); !rb.notified || rb.err != nil {
			t.Fatalf("round %d: second waiter Wait = %v, %v; want notified", i, rb.notified, rb.err)
		}
	}
}

// testTimedWaitNoStaleTick: permits racing a timed wait's timeout must
// not leave a timer tick behind for the next timed wait to mistake for
// its own timeout.
func testTimedWaitNoStaleTick(t *testing.T, mk func() lockapi.Locker) {
	f := newFixture(t, mk)
	a := f.thread(t, "a")
	o := f.heap.New("conf")
	f.l.Lock(a, o)
	for i := 0; i < 5; i++ {
		go func() {
			time.Sleep(2 * time.Millisecond)
			a.Parker().Unpark()
		}()
		if notified, err := f.l.Wait(a, o, 2*time.Millisecond); notified || err != nil {
			t.Fatalf("Wait = %v, %v; want a timeout", notified, err)
		}
	}
	start := time.Now()
	if notified, err := f.l.Wait(a, o, 15*time.Millisecond); notified || err != nil {
		t.Fatalf("Wait = %v, %v; want a timeout", notified, err)
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("second timed Wait returned after %v, before its 15ms timeout", elapsed)
	}
	if err := f.l.Unlock(a, o); err != nil {
		t.Fatal(err)
	}
}
