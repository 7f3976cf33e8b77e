package core

import (
	"sync"
	"sync/atomic"

	"thinlock/internal/lockevent"
	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// Queued inflation: an extension replacing the spin loop of §2.3.4.
//
// The paper acknowledges one pathological case for spinning: "when an
// object is locked by one thread and not released for a long time, during
// which time other threads are spinning on the object". The follow-up
// work on Tasuki locks (Onodera & Kawachiya, OOPSLA'99) eliminated the
// spin with a *flat lock contention* (flc) bit that a contender may set,
// placed where lock-word stores by the owner can never clobber it. This
// file implements that protocol:
//
//	contender:  set flc (atomic, in the flags word);
//	            re-read the lock word — still thin-locked by another
//	            thread? then park on the object's contention queue;
//	            otherwise retry immediately.
//	owner:      release the thin lock with the usual plain store, then
//	            load the flags word; if flc is set, wake the queue.
//
// Both sides' operations are sequentially consistent atomics, so the
// classic Dekker argument applies: if the contender parked, the owner's
// release either preceded the contender's re-read (contender would have
// seen the lock free) or the owner's flag load follows the contender's
// flag store (owner wakes the queue). No wakeup can be lost. That is
// why the owner's release here stays atomic.StoreUint32 (XCHG on
// amd64) instead of arch.StoreRelease, which its flag load could pass.
//
// The woken contenders race to acquire the thin lock; the winner inflates
// it under the locality-of-contention principle, and the losers find the
// inflated word and queue on the fat lock. The cost of the extension is
// one extra atomic load on every final unlock while the lock is thin.

// FlagFLC is the flat-lock-contention bit in the object's flags word.
const FlagFLC uint32 = 1 << 0

// flcQueue parks contenders for thin-locked objects. One queue serves
// every object of a ThinLocks: each entry names the object its thread
// waits for, and a wake releases exactly that object's entries. Entries
// exist only while a thin lock is contended, so the list stays short,
// and a parked contender blocks on its own threading.WaitRecord, so
// parking allocates nothing once the list has grown.
type flcQueue struct {
	mu      sync.Mutex
	waiters []flcWaiter
}

type flcWaiter struct {
	t  *threading.Thread
	id uint64 // object the thread waits for
}

// queueLen reports the number of parked contenders (tests).
func (q *flcQueue) queueLen() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.waiters)
}

// queueWait blocks t until o's thin lock is released (or briefly, on any
// wake). Returns immediately if the lock is observed free or inflated.
func (l *ThinLocks) queueWait(t *threading.Thread, o *object.Object) {
	// Publish contention before re-checking the lock word (store→load
	// ordering is what makes the handshake safe).
	o.SetFlagBits(FlagFLC)

	w := atomic.LoadUint32(o.HeaderAddr())
	if w&TIDMask == 0 || IsInflated(w) {
		// Released (or inflated) in the window: no need to park.
		return
	}

	q := &l.flc
	r := t.WaitRecord()
	q.mu.Lock()
	// Re-check under the queue lock so a concurrent wake cannot slip
	// between the check and the append.
	w = atomic.LoadUint32(o.HeaderAddr())
	if w&TIDMask == 0 || IsInflated(w) || o.Flags()&FlagFLC == 0 {
		q.mu.Unlock()
		return
	}
	r.State = threading.Entering
	q.waiters = append(q.waiters, flcWaiter{t: t, id: o.ID()})
	q.mu.Unlock()

	l.queuedParks.Add(1)
	start := lockevent.Stamp(lockevent.KindPark)
	q.parkWhileQueued(r)
	lockevent.Park(t, o, lockevent.WaitQueued, start)
}

// parkWhileQueued parks the thread owning r until a wake takes it off
// the queue. A wake sets the state before it unparks, so parking before
// the first check loses nothing; any other permit finds r still queued
// and the thread parks again.
//
//lockvet:noalloc
func (q *flcQueue) parkWhileQueued(r *threading.WaitRecord) {
	for {
		r.Park()
		q.mu.Lock()
		queued := r.State == threading.Entering
		q.mu.Unlock()
		if !queued {
			return
		}
	}
}

// wake releases every contender parked on the object with the given id,
// compacting the rest in place and clearing the vacated slots.
//
//lockvet:noalloc
func (q *flcQueue) wake(id uint64) {
	q.mu.Lock()
	n := 0
	for _, w := range q.waiters {
		if w.id != id {
			q.waiters[n] = w
			n++
			continue
		}
		r := w.t.WaitRecord()
		r.State = threading.NotQueued
		r.Unpark()
	}
	clear(q.waiters[n:])
	q.waiters = q.waiters[:n]
	q.mu.Unlock()
}

// wakeQueued clears the flc bit and releases every parked contender.
// Called by the releasing owner after its unlock store.
func (l *ThinLocks) wakeQueued(o *object.Object) {
	o.ClearFlagBits(FlagFLC)
	l.flc.wake(o.ID())
	l.flcWakeups.Add(1)
	lockevent.Count(nil, lockevent.CtrFLCWakeups)
}

// maybeWakeQueued is the owner's post-release hook: one atomic load in
// the common (uncontended) case.
func (l *ThinLocks) maybeWakeQueued(o *object.Object) {
	if o.Flags()&FlagFLC != 0 {
		l.wakeQueued(o)
	}
}

// wakeAfterUnlock is maybeWakeQueued behind the DropQueuedWake seeded
// mutation (see mutation.go). Inflation's wakeup is deliberately not
// routed through here: the mutation models a bug in the unlock path
// only.
func (l *ThinLocks) wakeAfterUnlock(o *object.Object) {
	if l.mut.DropQueuedWake {
		return
	}
	l.maybeWakeQueued(o)
}
