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
// entry queue and a wait set. Blocked threads park on per-node channels.
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
	"sync/atomic"
	"time"

	"thinlock/internal/lockevent"
	"thinlock/internal/threading"
)

// ErrIllegalMonitorState is returned when a thread performs exit, wait,
// notify or notifyAll on a monitor it does not own, mirroring Java's
// IllegalMonitorStateException.
var ErrIllegalMonitorState = errors.New("monitor: thread does not own monitor")

// nodeState tracks where a blocked thread's node currently lives.
// All transitions happen under the monitor latch.
type nodeState int

const (
	stateEntryQueue nodeState = iota // blocked entering; in entry queue
	stateWaitSet                     // blocked in wait; in wait set
	stateGranted                     // ownership handed to this node
)

// node represents one blocked thread, used for both the entry queue and
// the wait set (notify moves a node from the wait set to the entry
// queue without reallocating).
type node struct {
	t       *threading.Thread
	granted chan struct{} // receives the ownership handoff; buffered 1
	intr    chan struct{} // closed on interrupt (wait nodes only)
	intrOne sync.Once
	reentry uint32 // lock count to restore when granted
	state   nodeState
}

// WakeForInterrupt implements threading.Interruptible.
func (n *node) WakeForInterrupt() {
	n.intrOne.Do(func() { close(n.intr) })
}

// Monitor is a heavy-weight recursive lock with condition-variable
// semantics. The zero value is unusable; create monitors with New or
// Table.Allocate.
type Monitor struct {
	latch   sync.Mutex
	owner   *threading.Thread
	count   uint32
	entry   []*node // FIFO entry queue
	waits   []*node // wait set, notified in FIFO order
	index   uint32  // index in the owning Table (0 if table-less)
	retired bool    // set by Retire; the monitor no longer guards its object

	// recycledIdx records that the Table served this monitor's index
	// from a free list rather than extending the index space. Set once
	// at allocation, read-only afterwards.
	recycledIdx bool

	contended atomic.Uint64 // entries that had to queue
	waitCount atomic.Uint64 // Wait calls
	notifies  atomic.Uint64 // Notify + NotifyAll calls
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
// removed: a queued contender's node is abandoned, its handoff never
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
	n := &node{t: t, granted: make(chan struct{}, 1), reentry: c, state: stateEntryQueue}
	m.entry = append(m.entry, n)
	m.contended.Add(1)
	depth := len(m.entry)
	m.latch.Unlock()
	lockevent.Enqueue(t, depth)
	start := lockevent.Stamp(lockevent.KindPark)
	<-n.granted // direct handoff: owner/count already set for us
	lockevent.Park(t, nil, lockevent.WaitFat, start)
	return true
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
	if m.count == 0 {
		m.handoffLocked()
	}
	m.latch.Unlock()
	return nil
}

// handoffLocked transfers ownership to the head of the entry queue, or
// marks the monitor unowned. Caller holds the latch and has already set
// count to 0.
func (m *Monitor) handoffLocked() {
	if len(m.entry) == 0 {
		m.owner = nil
		return
	}
	n := m.entry[0]
	copy(m.entry, m.entry[1:])
	m.entry = m.entry[:len(m.entry)-1]
	m.owner = n.t
	m.count = n.reentry
	n.state = stateGranted
	lockevent.Emit(lockevent.KindHandoff, n.t, nil)
	n.granted <- struct{}{}
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
	m.waitCount.Add(1)
	lockevent.Count(t, lockevent.CtrWaits)
	n := &node{
		t:       t,
		granted: make(chan struct{}, 1),
		intr:    make(chan struct{}),
		reentry: m.count,
		state:   stateWaitSet,
	}
	m.waits = append(m.waits, n)
	m.count = 0
	m.handoffLocked()
	t.SetWaitNode(n)
	m.latch.Unlock()

	interrupted := false
	if d > 0 {
		timer := time.NewTimer(d)
		select {
		case <-n.granted:
			notified = true
		case <-timer.C:
			lockevent.Count(t, lockevent.CtrWaitTimerWakeups)
		case <-n.intr:
			interrupted = true
		}
		timer.Stop()
	} else {
		select {
		case <-n.granted:
			notified = true
		case <-n.intr:
			interrupted = true
		}
	}
	t.SetWaitNode(nil)

	if !notified {
		// Timeout or interrupt. If the node is still in the wait set we
		// cancel it and re-acquire the lock by queueing normally. If a
		// concurrent notify already moved it to the entry queue, the
		// handoff is (or will be) on its way: consume it instead. In
		// the latter race Java treats the wakeup as a notification; a
		// pending interrupt status is preserved for the caller.
		m.latch.Lock()
		if n.state == stateWaitSet {
			m.removeWaiterLocked(n)
			// Re-acquire: become a normal entry-queue node reusing
			// the same channel and reentry count.
			switch {
			case m.owner == nil:
				m.owner = t
				m.count = n.reentry
				n.state = stateGranted
				m.latch.Unlock()
			case m.owner == t:
				// Impossible: we fully released and cannot have
				// re-entered while blocked.
				panic("monitor: waiter already owns monitor")
			default:
				n.state = stateEntryQueue
				m.entry = append(m.entry, n)
				m.contended.Add(1)
				m.latch.Unlock()
				<-n.granted
			}
		} else {
			// Notified concurrently with the timeout/interrupt: a
			// handoff will arrive on n.granted. Wait for it.
			m.latch.Unlock()
			<-n.granted
			notified = true
		}
	}

	if interrupted && t.Interrupted() {
		return notified, threading.ErrInterrupted
	}
	return notified, nil
}

// removeWaiterLocked deletes n from the wait set. Caller holds the latch.
func (m *Monitor) removeWaiterLocked(n *node) {
	for i, w := range m.waits {
		if w == n {
			m.waits = append(m.waits[:i], m.waits[i+1:]...)
			return
		}
	}
}

// Notify moves the longest-waiting thread from the wait set to the entry
// queue. Waking a monitor with no waiters is a no-op, as in Java.
func (m *Monitor) Notify(t *threading.Thread) error {
	m.latch.Lock()
	defer m.latch.Unlock()
	if m.owner != t {
		return ErrIllegalMonitorState
	}
	m.notifies.Add(1)
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
	m.notifies.Add(1)
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
	n := m.waits[0]
	copy(m.waits, m.waits[1:])
	m.waits = m.waits[:len(m.waits)-1]
	n.state = stateEntryQueue
	m.entry = append(m.entry, n)
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

// ContendedEntries reports how many Enter calls had to block.
func (m *Monitor) ContendedEntries() uint64 { return m.contended.Load() }

// Waits reports how many Wait calls were made.
func (m *Monitor) Waits() uint64 { return m.waitCount.Load() }

// Notifies reports how many Notify/NotifyAll calls were made.
func (m *Monitor) Notifies() uint64 { return m.notifies.Load() }
