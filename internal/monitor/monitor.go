// Package monitor implements the heavy-weight ("fat") locks that thin
// locks inflate into, together with the global table mapping 23-bit
// monitor indices to monitor structures.
//
// The paper assumes "a pre-existing heavy-weight system ... to support the
// full range of Java synchronization semantics, including queuing of
// unsatisfied lock requests, and the wait, notify, and notifyAll
// operations. Such a system will represent a monitor as a multi-word
// structure which includes space for a thread pointer, a nested lock
// count, and the necessary queues." (§2.1). This package is that system:
// a Monitor holds an owner thread pointer, the lock count (the number of
// locks, not the number minus one as in a thin lock — Figure 2), a FIFO
// entry queue and a wait set.
//
// The queues hold threads, and a blocked thread parks on its own
// threading.WaitRecord: the lock count to restore, its queue state and
// its Parker. A thread blocks in at most one place at a time, so that
// one record serves the entry queue, the wait set and a timed wait's
// timer, and blocking allocates nothing. Every park sits in a loop that
// re-checks the record's state under the latch, so a permit that does
// not come from this monitor (an interrupt, a biased revoker's wake, an
// unpark that arrived late) never grants ownership or reports a
// notification.
//
// Monitor entry uses direct handoff: when the owner exits, ownership is
// transferred to the head of the entry queue before that thread resumes,
// which keeps the queue FIFO-fair and makes the ownership invariant easy
// to state (owner == nil implies the entry queue is empty).
package monitor

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"thinlock/internal/lockevent"
	"thinlock/internal/threading"
)

// ErrIllegalMonitorState is returned when a thread performs exit, wait,
// notify or notifyAll on a monitor it does not own, mirroring Java's
// IllegalMonitorStateException.
var ErrIllegalMonitorState = errors.New("monitor: thread does not own monitor")

// Monitor is a heavy-weight recursive lock with condition-variable
// semantics. The zero value is unusable; create monitors with New or
// Table.Allocate.
type Monitor struct {
	latch   sync.Mutex
	owner   *threading.Thread
	count   uint32
	entry   []*threading.Thread // FIFO entry queue
	waits   []*threading.Thread // wait set, notified in FIFO order
	index   uint32              // index in the owning Table (0 if table-less)
	retired bool                // set by Retire; the monitor no longer guards its object

	// recycledIdx records that the Table served this monitor's index
	// from a free list rather than extending the index space. Set once
	// at allocation, read-only afterwards.
	recycledIdx bool
}

// New returns a fresh unowned monitor that is not registered in any
// table (Index reports 0).
func New() *Monitor { return &Monitor{} }

// Index returns the monitor's index in its Table, or 0 if it was created
// with New.
func (m *Monitor) Index() uint32 { return m.index }

// String implements fmt.Stringer.
func (m *Monitor) String() string {
	m.latch.Lock()
	defer m.latch.Unlock()
	return fmt.Sprintf("monitor(idx=%d owner=%v count=%d entry=%d wait=%d)",
		m.index, m.owner, m.count, len(m.entry), len(m.waits))
}

// Enter acquires the monitor for t, blocking until it is available.
// Re-entry by the owner increments the lock count. Entering a retired
// monitor is a caller bug (only the deflation extension retires monitors,
// and it enters through EnterIfActive).
func (m *Monitor) Enter(t *threading.Thread) {
	if !m.enterWithCount(t, 1) {
		panic("monitor: Enter on retired monitor")
	}
}

// EnterIfActive is like Enter but fails fast, without acquiring, when the
// monitor has been retired by the deflation extension. A false return
// means the caller must retry from the object header, which no longer
// points at this monitor.
func (m *Monitor) EnterIfActive(t *threading.Thread) bool {
	m.latch.Lock()
	if m.retired {
		m.latch.Unlock()
		return false
	}
	m.latch.Unlock()
	// Between the check and the enter the monitor cannot become retired
	// while we block: Retire requires ownership with empty queues, and
	// our queue node prevents that. It can, however, retire before we
	// queue; enterWithCount re-checks under one latch acquisition.
	return m.enterWithCount(t, 1)
}

// Retire deflates the monitor: if t owns it exactly once and both queues
// are empty, the monitor is marked retired and released, and true is
// returned. A retired monitor rejects all future entries, forcing
// latecomers back to the object header. Used only by the deflation
// extension; the paper's protocol never deflates (§2.3).
func (m *Monitor) Retire(t *threading.Thread) bool {
	m.latch.Lock()
	defer m.latch.Unlock()
	if m.owner != t || m.count != 1 || len(m.entry) > 0 || len(m.waits) > 0 {
		return false
	}
	m.owner = nil
	m.count = 0
	m.retired = true
	lockevent.Count(t, lockevent.CtrMonitorRetirements)
	return true
}

// RetireDroppingQueue is Retire with the entry-queue emptiness check
// removed: a queued contender is abandoned, its handoff never
// arrives, and the thread sleeps forever. It exists only as the seeded
// deflate-queue mutation (see core.Mutations), so the differential
// checker can prove it detects a deflation that strands contenders.
func (m *Monitor) RetireDroppingQueue(t *threading.Thread) bool {
	m.latch.Lock()
	defer m.latch.Unlock()
	if m.owner != t || m.count != 1 || len(m.waits) > 0 {
		return false
	}
	m.owner = nil
	m.count = 0
	m.retired = true
	lockevent.Count(t, lockevent.CtrMonitorRetirements)
	return true
}

// RecycledIndex reports whether this monitor's index was served from the
// table's free list (i.e. a previous monitor was deflated out of it).
func (m *Monitor) RecycledIndex() bool { return m.recycledIdx }

// Retired reports whether the monitor has been deflated away.
func (m *Monitor) Retired() bool {
	m.latch.Lock()
	defer m.latch.Unlock()
	return m.retired
}

// enterWithCount acquires the monitor and, when the acquisition is an
// initial one (not a recursive re-entry), sets the lock count to c. Wait
// re-acquisition uses c to restore its saved recursion depth in one step.
// It returns false without acquiring if the monitor is retired.
func (m *Monitor) enterWithCount(t *threading.Thread, c uint32) bool {
	m.latch.Lock()
	if m.retired {
		m.latch.Unlock()
		return false
	}
	switch {
	case m.owner == nil:
		m.owner = t
		m.count = c
		m.latch.Unlock()
		return true
	case m.owner == t:
		m.count += c
		m.latch.Unlock()
		return true
	}
	r := t.WaitRecord()
	r.Count = c
	r.State = threading.Entering
	m.entry = append(m.entry, t)
	depth := len(m.entry)
	m.latch.Unlock()
	lockevent.Enqueue(t, depth)
	start := lockevent.Stamp(lockevent.KindPark)
	m.parkUntilGranted(r) // direct handoff: owner/count already set for us
	lockevent.Park(t, nil, lockevent.WaitFat, start)
	return true
}

// parkUntilGranted parks the thread owning r until a handoff grants it
// the monitor. The caller has queued r, released the latch, and not
// parked since. Every transition to Granted is followed by an Unpark,
// so parking before the first check loses no wakeup; any other permit
// finds r still queued and the thread parks again.
//
//lockvet:noalloc
func (m *Monitor) parkUntilGranted(r *threading.WaitRecord) {
	for {
		r.Park()
		m.latch.Lock()
		granted := r.State == threading.Granted
		m.latch.Unlock()
		if granted {
			return
		}
	}
}

// TryEnter acquires the monitor only if it can do so without blocking,
// reporting whether it succeeded.
func (m *Monitor) TryEnter(t *threading.Thread) bool {
	m.latch.Lock()
	defer m.latch.Unlock()
	if m.retired {
		return false
	}
	switch {
	case m.owner == nil:
		m.owner = t
		m.count = 1
		return true
	case m.owner == t:
		m.count++
		return true
	}
	return false
}

// SeedOwner makes t the owner with the given lock count without blocking.
// It is used during inflation: the inflating thread already holds the
// object's thin lock, so it installs itself as the fat lock's owner
// before publishing the monitor index in the object header. Seeding a
// monitor that is in use is a bug in the caller.
func (m *Monitor) SeedOwner(t *threading.Thread, count uint32) {
	m.latch.Lock()
	defer m.latch.Unlock()
	if m.owner != nil || len(m.entry) > 0 || len(m.waits) > 0 {
		panic("monitor: SeedOwner on a monitor in use")
	}
	if count == 0 {
		panic("monitor: SeedOwner with zero count")
	}
	m.owner = t
	m.count = count
}

// Exit releases one level of the monitor. Releasing the last level hands
// the monitor to the head of the entry queue, if any.
func (m *Monitor) Exit(t *threading.Thread) error {
	m.latch.Lock()
	if m.owner != t {
		m.latch.Unlock()
		return ErrIllegalMonitorState
	}
	m.count--
	var next *threading.Thread
	if m.count == 0 {
		next = m.handoffLocked()
	}
	m.latch.Unlock()
	unpark(next)
	return nil
}

// handoffLocked transfers ownership to the head of the entry queue, or
// marks the monitor unowned, and returns the new owner for the caller to
// unpark once it has released the latch (nil if none). Caller holds the
// latch and has already set count to 0.
//
//lockvet:noalloc
func (m *Monitor) handoffLocked() *threading.Thread {
	if len(m.entry) == 0 {
		m.owner = nil
		return nil
	}
	next := m.entry[0]
	m.entry = removeAt(m.entry, 0)
	r := next.WaitRecord()
	m.owner = next
	m.count = r.Count
	r.State = threading.Granted
	lockevent.Emit(lockevent.KindHandoff, next, nil)
	return next
}

// unpark wakes t, if any, after a handoff granted it the monitor.
//
//lockvet:noalloc
func unpark(t *threading.Thread) {
	if t != nil {
		t.WaitRecord().Unpark()
	}
}

// Wait releases the monitor completely (whatever the recursion depth),
// blocks until notified, interrupted, or d elapses (d <= 0 waits
// forever), then re-acquires the monitor at the saved depth before
// returning.
//
// notified reports whether the thread was woken by Notify/NotifyAll
// (false for timeout). err is ErrIllegalMonitorState if t does not own
// the monitor, or threading.ErrInterrupted if the wait was interrupted
// (in which case the interrupt status is cleared, as in Java).
func (m *Monitor) Wait(t *threading.Thread, d time.Duration) (notified bool, err error) {
	m.latch.Lock()
	if m.owner != t {
		m.latch.Unlock()
		return false, ErrIllegalMonitorState
	}
	if t.IsInterrupted() {
		m.latch.Unlock()
		t.Interrupted() // clear, as Java does when throwing
		return false, threading.ErrInterrupted
	}
	lockevent.Count(t, lockevent.CtrWaits)
	r := t.WaitRecord()
	r.Count = m.count
	r.State = threading.Waiting
	m.waits = append(m.waits, t)
	m.count = 0
	next := m.handoffLocked()
	m.latch.Unlock()
	unpark(next)

	// Park until notified, interrupted or timed out. Interrupt sets the
	// status before it unparks, and the status was clear when we
	// queued, so an interrupt from here on always ends a park.
	var deadline time.Time
	if d > 0 {
		deadline = time.Now().Add(d)
	}
	interrupted, timedOut := false, false
	for {
		if d <= 0 {
			r.Park()
		} else if rem := time.Until(deadline); rem <= 0 || !r.ParkTimeout(rem) {
			timedOut = true
		}
		m.latch.Lock()
		if r.State != threading.Waiting {
			// Notify moved us to the entry queue (and an exit may have
			// granted us the monitor since). This wins over a racing
			// timeout or interrupt; a pending interrupt status stays
			// set for the caller, as Java allows.
			notified = true
			break
		}
		if t.IsInterrupted() {
			interrupted = true
			break
		}
		if timedOut {
			lockevent.Count(t, lockevent.CtrWaitTimerWakeups)
			break
		}
		m.latch.Unlock() // a permit from elsewhere: park again
	}

	depth := 0 // entry-queue depth when a timeout or interrupt re-queued us
	if !notified {
		// Timeout or interrupt: leave the wait set and re-acquire by
		// taking the free monitor or queueing for it, at the saved
		// depth.
		m.removeWaiterLocked(t)
		if m.owner == nil {
			m.owner = t
			m.count = r.Count
			r.State = threading.Granted
		} else {
			r.State = threading.Entering
			m.entry = append(m.entry, t)
			depth = len(m.entry)
		}
	}
	// Granted here means the grant's permit was the one just consumed
	// (or there was none, for a free monitor); otherwise it is on its
	// way.
	granted := r.State == threading.Granted
	m.latch.Unlock()
	if depth > 0 {
		// A contended entry like Enter's, reported the same way.
		lockevent.Enqueue(t, depth)
	}
	if !granted {
		m.parkUntilGranted(r)
	}

	if interrupted {
		t.Interrupted() // clear, as Java does when throwing
		return false, threading.ErrInterrupted
	}
	return notified, nil
}

// removeWaiterLocked deletes t from the wait set. Caller holds the
// latch.
//
//lockvet:noalloc
func (m *Monitor) removeWaiterLocked(t *threading.Thread) {
	for i, w := range m.waits {
		if w == t {
			m.waits = removeAt(m.waits, i)
			return
		}
	}
}

// removeAt deletes q[i] in place and clears the vacated slot, so a
// monitor abandoned with a spare queue capacity pins no former waiter.
//
//lockvet:noalloc
func removeAt(q []*threading.Thread, i int) []*threading.Thread {
	n := i + copy(q[i:], q[i+1:])
	q[n] = nil
	return q[:n]
}

// Notify moves the longest-waiting thread from the wait set to the entry
// queue. Waking a monitor with no waiters is a no-op, as in Java.
func (m *Monitor) Notify(t *threading.Thread) error {
	m.latch.Lock()
	defer m.latch.Unlock()
	if m.owner != t {
		return ErrIllegalMonitorState
	}
	lockevent.Emit(lockevent.KindNotify, t, nil)
	m.notifyOneLocked()
	return nil
}

// NotifyAll moves every waiting thread to the entry queue.
func (m *Monitor) NotifyAll(t *threading.Thread) error {
	m.latch.Lock()
	defer m.latch.Unlock()
	if m.owner != t {
		return ErrIllegalMonitorState
	}
	lockevent.Emit(lockevent.KindNotify, t, nil)
	for len(m.waits) > 0 {
		m.notifyOneLocked()
	}
	return nil
}

// notifyOneLocked moves the head of the wait set to the entry queue.
// Caller holds the latch.
func (m *Monitor) notifyOneLocked() {
	if len(m.waits) == 0 {
		return
	}
	t := m.waits[0]
	m.waits = removeAt(m.waits, 0)
	t.WaitRecord().State = threading.Entering
	m.entry = append(m.entry, t)
}

// Owner returns the current owning thread, or nil.
func (m *Monitor) Owner() *threading.Thread {
	m.latch.Lock()
	defer m.latch.Unlock()
	return m.owner
}

// Count returns the current lock count.
func (m *Monitor) Count() uint32 {
	m.latch.Lock()
	defer m.latch.Unlock()
	return m.count
}

// EntryQueueLen reports how many threads are blocked entering.
func (m *Monitor) EntryQueueLen() int {
	m.latch.Lock()
	defer m.latch.Unlock()
	return len(m.entry)
}

// WaitSetLen reports how many threads are in the wait set.
func (m *Monitor) WaitSetLen() int {
	m.latch.Lock()
	defer m.latch.Unlock()
	return len(m.waits)
}

// Quiescent reports whether the monitor is unowned with empty queues;
// used by the deflation extension.
func (m *Monitor) Quiescent() bool {
	m.latch.Lock()
	defer m.latch.Unlock()
	return m.owner == nil && len(m.entry) == 0 && len(m.waits) == 0
}
