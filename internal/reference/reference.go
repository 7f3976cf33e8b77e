// Package reference provides a deliberately simple, obviously-correct
// monitor implementation used as a differential-testing oracle: a global
// mutex guards a map from object id to a straightforward monitor state
// machine. It makes no attempt to be fast; its only job is to define the
// expected observable behaviour (ownership, recursion counts, error
// cases, wait/notify transfers) that the optimized implementations —
// thin locks and both baselines — must match on identical traces.
package reference

import (
	"sync"
	"time"

	"thinlock/internal/monitor"
	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// ErrIllegalMonitorState mirrors the shared error for misuse.
var ErrIllegalMonitorState = monitor.ErrIllegalMonitorState

// state is the oracle's per-object monitor. Blocked threads park on
// their own threading.Parker and re-check the state under l.mu on every
// wake, so a wake with nothing to report only costs a retry.
type state struct {
	owner   *threading.Thread
	count   int
	waiters []*waiter
	// blocked are the entrants to wake when the lock is released.
	blocked []*threading.Thread
}

type waiter struct {
	t        *threading.Thread
	notified bool
}

// Locker is the oracle. It implements lockapi.Locker.
type Locker struct {
	mu     sync.Mutex
	states map[uint64]*state
}

// New returns an empty oracle.
func New() *Locker {
	return &Locker{states: make(map[uint64]*state)}
}

// Name implements lockapi.Locker.
func (l *Locker) Name() string { return "Reference" }

// get returns the state for o, creating it if needed. Caller holds l.mu.
func (l *Locker) get(o *object.Object) *state {
	s := l.states[o.ID()]
	if s == nil {
		s = &state{}
		l.states[o.ID()] = s
	}
	return s
}

// Lock implements lockapi.Locker.
func (l *Locker) Lock(t *threading.Thread, o *object.Object) {
	for {
		l.mu.Lock()
		s := l.get(o)
		if s.owner == nil {
			s.owner = t
			s.count = 1
			l.mu.Unlock()
			return
		}
		if s.owner == t {
			s.count++
			l.mu.Unlock()
			return
		}
		s.blocked = append(s.blocked, t)
		l.mu.Unlock()
		t.Parker().Park() // wait for a release broadcast, then retry
	}
}

// releaseLocked makes s unowned and wakes every blocked entrant to
// retry. Caller holds l.mu.
func (s *state) releaseLocked() {
	s.owner = nil
	for _, b := range s.blocked {
		b.Parker().Unpark()
	}
	s.blocked = nil
}

// Unlock implements lockapi.Locker.
func (l *Locker) Unlock(t *threading.Thread, o *object.Object) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.get(o)
	if s.owner != t {
		return ErrIllegalMonitorState
	}
	s.count--
	if s.count == 0 {
		s.releaseLocked()
	}
	return nil
}

// Wait implements lockapi.Locker.
func (l *Locker) Wait(t *threading.Thread, o *object.Object, d time.Duration) (bool, error) {
	l.mu.Lock()
	s := l.get(o)
	if s.owner != t {
		l.mu.Unlock()
		return false, ErrIllegalMonitorState
	}
	if t.IsInterrupted() {
		l.mu.Unlock()
		t.Interrupted()
		return false, threading.ErrInterrupted
	}
	w := &waiter{t: t}
	s.waiters = append(s.waiters, w)
	saved := s.count
	s.count = 0
	s.releaseLocked()
	var deadline time.Time
	if d > 0 {
		deadline = time.Now().Add(d)
	}
	interrupted, timedOut := false, false
	for !w.notified && !timedOut {
		if interrupted = t.IsInterrupted(); interrupted {
			break
		}
		l.mu.Unlock()
		if d <= 0 {
			t.Parker().Park()
		} else if rem := time.Until(deadline); rem <= 0 || !t.Parker().ParkTimeout(rem) {
			timedOut = true
		}
		l.mu.Lock()
	}
	// A notification that raced the timeout or interrupt wins (the loop
	// checks it first); the interrupt status then stays pending.
	notified := w.notified
	if !notified {
		for i, x := range s.waiters {
			if x == w {
				s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
				break
			}
		}
	}
	l.mu.Unlock()

	// Re-acquire at the saved depth.
	l.Lock(t, o)
	l.mu.Lock()
	s.count = saved
	l.mu.Unlock()
	// As in internal/monitor: an interrupted, unnotified wait reports
	// ErrInterrupted and consumes the status.
	if interrupted {
		t.Interrupted()
		return false, threading.ErrInterrupted
	}
	return notified, nil
}

// Notify implements lockapi.Locker.
func (l *Locker) Notify(t *threading.Thread, o *object.Object) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.get(o)
	if s.owner != t {
		return ErrIllegalMonitorState
	}
	if len(s.waiters) > 0 {
		w := s.waiters[0]
		s.waiters = s.waiters[1:]
		w.notified = true
		w.t.Parker().Unpark()
	}
	return nil
}

// NotifyAll implements lockapi.Locker.
func (l *Locker) NotifyAll(t *threading.Thread, o *object.Object) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.get(o)
	if s.owner != t {
		return ErrIllegalMonitorState
	}
	for _, w := range s.waiters {
		w.notified = true
		w.t.Parker().Unpark()
	}
	s.waiters = nil
	return nil
}

// Owner reports the oracle's view of o's owner index (0 if unlocked).
func (l *Locker) Owner(o *object.Object) uint16 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s := l.states[o.ID()]; s != nil && s.owner != nil {
		return s.owner.Index()
	}
	return 0
}

// Count reports the oracle's view of o's recursion count.
func (l *Locker) Count(o *object.Object) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s := l.states[o.ID()]; s != nil {
		return s.count
	}
	return 0
}
