// Package lockevent is the one pipeline every lock implementation
// reports its events through, and the one place that decides what a
// lock event is.
//
// The paper keeps all bookkeeping off the 17-instruction thin-lock fast
// path, so it lands on the slow paths: contention, inflation and wait.
// Those paths emit each event once, through the emitters below. The
// observability layers are sinks: internal/telemetry (counters and
// histograms), internal/lockprof (site-attributed contention profile)
// and internal/lockdep (lock-order graph and wait-for state), each in
// a fixed Slot. A lock implementation gets all three by emitting events.
//
// The installed sink set is immutable and published behind one atomic
// pointer; the union of the kinds its sinks consume is mirrored in one
// word. Every emitter inlines at its call site to one load of that word,
// a test against the kind's constant bit and a not-taken branch, so a
// kind no installed sink wants (acquire/release with only telemetry on)
// costs exactly that, and nothing allocates. A wanted event makes one
// out-of-line call to dispatch, which calls each consuming sink.
//
// Site capture (SiteKey, CaptureSite and the label rules) lives here
// too, so the sinks share one implementation of it.
package lockevent

import (
	"sync"
	"sync/atomic"
	"time"

	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// Kind enumerates the lock events. T is the acting thread, O the lock
// object, and Arg and N qualify the event as noted (see Event).
type Kind uint8

const (
	// KindAcquire: T now owns O; raised after every successful lock.
	KindAcquire Kind = iota
	// KindRelease: T released one level of O; raised after every
	// successful unlock.
	KindRelease
	// KindSlowEnter: an acquisition of O left the inlined fast path.
	KindSlowEnter
	// KindSlowExit: that slow-path acquisition completed after N ns.
	KindSlowExit
	// KindUnlockSlow: a release of O took the slow path.
	KindUnlockSlow
	// KindCASFail: a compare-and-swap on O's lock word lost a race.
	KindCASFail
	// KindSpin: one back-off round on O; Arg is the WaitKind.
	KindSpin
	// KindBlocked: T is about to block on O; Arg is the WaitKind.
	KindBlocked
	// KindUnblocked: a blocking episode on O that does not end in an
	// acquisition is over after N ns; Arg is the WaitKind.
	KindUnblocked
	// KindEnqueue: T joined a monitor entry queue at depth N.
	KindEnqueue
	// KindPark: T was parked for N ns; Arg is the WaitKind (WaitQueued
	// for the contention queue, WaitFat for a monitor entry queue).
	KindPark
	// KindInflate: O inflated to a fat lock; Arg is the Cause.
	KindInflate
	// KindDeflate: O's quiescent fat lock went back to thin.
	KindDeflate
	// KindRevoke: O's bias reservation was revoked; Arg is the Cause.
	KindRevoke
	// KindHandoff: an exiting owner handed a monitor directly to T.
	KindHandoff
	// KindWaitBegin: T entered Object.wait on O.
	KindWaitBegin
	// KindWaitEnd: T's Object.wait on O returned.
	KindWaitEnd
	// KindNotify: T called notify or notifyAll.
	KindNotify
	// KindCount: implementation counter Arg (a Counter) ticked.
	KindCount
)

// Mask is a set of kinds.
type Mask uint32

// Bit returns the mask holding only k.
func (k Kind) Bit() Mask { return 1 << k }

// Of returns the mask holding the given kinds.
func Of(kinds ...Kind) Mask {
	var m Mask
	for _, k := range kinds {
		m |= k.Bit()
	}
	return m
}

// Cause classifies why a lock inflated or a bias reservation was
// revoked: the paper's three inflation triggers.
type Cause uint8

const (
	CauseContention Cause = iota // a second thread contended
	CauseOverflow                // the nested-lock count overflowed
	CauseWait                    // a thread waited on the object
	NumCauses                    // the number of causes
)

var causeNames = [NumCauses]string{"contention", "overflow", "wait"}

// String returns the cause's stable label.
func (c Cause) String() string {
	if c < NumCauses {
		return causeNames[c]
	}
	return "unknown"
}

// WaitKind classifies why a thread is blocked on an object.
type WaitKind uint8

const (
	WaitNone       WaitKind = iota // not blocked
	WaitSpin                       // spinning for a thin lock (§2.3.4)
	WaitQueued                     // parked on the flat-lock-contention queue
	WaitFat                        // entering a fat monitor that may be owned
	WaitRevocation                 // waiting out a bias-revocation handshake
	WaitCond                       // in Object.wait
	numWaitKinds
)

var waitKindNames = [numWaitKinds]string{
	"none", "spin", "queued-park", "monitor-enter", "bias-revocation", "cond-wait",
}

// String returns the report label for the kind.
func (k WaitKind) String() string {
	if k < numWaitKinds {
		return waitKindNames[k]
	}
	return "unknown"
}

// Event is one lock event as a sink receives it.
type Event struct {
	Kind Kind
	// Arg is the Cause, WaitKind or Counter the kind names.
	Arg uint8
	// T is the acting thread (nil for bookkeeping no thread owns); O is
	// the lock object (nil where it is not known: monitor-level handoff,
	// notify, enqueue and park, and counters).
	T *threading.Thread
	O *object.Object
	// N is nanoseconds for the timed kinds, the depth for KindEnqueue.
	N int64
}

// Sink consumes lock events. It must not block, allocate on its steady
// state, or emit events.
type Sink interface {
	// Kinds reports the kinds the sink consumes, read at install.
	Kinds() Mask
	// Event handles one event of a consumed kind.
	Event(e Event)
}

// Slot names the fixed position of each of the three sinks.
type Slot uint8

const (
	SlotTelemetry Slot = iota // internal/telemetry
	SlotProfiler              // internal/lockprof
	SlotLockdep               // internal/lockdep
	numSlots
)

// set is one immutable installed sink set; masks[i] holds the kinds
// sinks[i] consumes.
type set struct {
	sinks [numSlots]Sink
	masks [numSlots]Mask
}

var (
	// installed is the current set, nil when no sink is installed.
	installed atomic.Pointer[set]
	// wanted mirrors the union of installed's masks, so an emitter's
	// check is one load; only dispatch loads the set. A reader that sees
	// the two out of step during an Install misses or drops that event.
	wanted    atomic.Uint32
	installMu sync.Mutex // serializes Install's copy-on-write
)

// Install puts s in slot (nil empties it) and publishes the new set.
func Install(slot Slot, s Sink) {
	installMu.Lock()
	defer installMu.Unlock()
	var next set
	if cur := installed.Load(); cur != nil {
		next = *cur
	}
	next.sinks[slot], next.masks[slot] = s, 0
	if s != nil {
		next.masks[slot] = s.Kinds()
	}
	var union Mask
	empty := true
	for i := range next.sinks {
		union |= next.masks[i]
		empty = empty && next.sinks[i] == nil
	}
	if empty {
		installed.Store(nil)
	} else {
		installed.Store(&next)
	}
	wanted.Store(uint32(union))
}

// Installed returns the sink in slot, or nil.
func Installed(slot Slot) Sink {
	if s := installed.Load(); s != nil {
		return s.sinks[slot]
	}
	return nil
}

// On reports whether any sink is installed.
//
//lockvet:noalloc
func On() bool { return installed.Load() != nil }

// Wants reports whether an installed sink consumes k.
//
//lockvet:noalloc
func Wants(k Kind) bool { return Mask(wanted.Load())&k.Bit() != 0 }

// timed holds the kinds whose N an emitter passes as a start stamp;
// dispatch turns it into the elapsed time, which keeps the emitters
// within the inlining budget.
const timed = 1<<KindSlowExit | 1<<KindPark | 1<<KindUnblocked

// dispatch hands one event to every installed sink that consumes it.
// CaptureSite recognizes its frame (see dispatchReturn). For
// KindSlowEnter it returns the stamp SlowExit measures from, so that
// emitter stays one call; otherwise 0.
//
//go:noinline
func dispatch(k Kind, arg uint8, t *threading.Thread, o *object.Object, n int64) int64 {
	s := installed.Load()
	if s == nil {
		return 0
	}
	bit := k.Bit()
	if bit&timed != 0 {
		n = Now() - n
	}
	e := Event{Kind: k, Arg: arg, T: t, O: o, N: n}
	for i := range s.sinks {
		if s.masks[i]&bit != 0 {
			s.sinks[i].Event(e)
		}
	}
	if k == KindSlowEnter {
		return Now()
	}
	return 0
}

var base = time.Now()

// Now returns monotonic nanoseconds since process start, the clock of
// every sink. It allocates nothing, and stays out of line so Stamp fits
// the inlining budget.
//
//lockvet:noalloc
//go:noinline
func Now() int64 { return int64(time.Since(base)) }

// The emitters below raise the kind they are named after, with the
// arguments the kind documents; Emit raises the kind it is given.

// Emit raises k, a kind that carries only a thread and an object.
//
//lockvet:noalloc
func Emit(k Kind, t *threading.Thread, o *object.Object) {
	if wanted.Load()&(1<<k) != 0 {
		dispatch(k, 0, t, o, 0)
	}
}

// Stamp starts a timed event of kind k (KindPark, KindUnblocked): Now if
// a sink consumes k, else 0, for which the emitter does nothing.
//
//lockvet:noalloc
func Stamp(k Kind) int64 {
	if Mask(wanted.Load())&k.Bit() != 0 {
		return Now()
	}
	return 0
}

// SlowEnter returns the stamp for SlowExit (0 when no sink consumes
// either kind).
//
//lockvet:noalloc
func SlowEnter(t *threading.Thread, o *object.Object) int64 {
	if wanted.Load()&(1<<KindSlowEnter|1<<KindSlowExit) != 0 {
		return dispatch(KindSlowEnter, 0, t, o, 0)
	}
	return 0
}

//lockvet:noalloc
func SlowExit(t *threading.Thread, o *object.Object, start int64) {
	if start != 0 {
		dispatch(KindSlowExit, 0, t, o, start)
	}
}

//lockvet:noalloc
func Spin(t *threading.Thread, o *object.Object, w WaitKind) {
	if wanted.Load()&(1<<KindSpin) != 0 {
		dispatch(KindSpin, uint8(w), t, o, 0)
	}
}

//lockvet:noalloc
func Blocked(t *threading.Thread, o *object.Object, w WaitKind) {
	if wanted.Load()&(1<<KindBlocked) != 0 {
		dispatch(KindBlocked, uint8(w), t, o, 0)
	}
}

//lockvet:noalloc
func Unblocked(t *threading.Thread, o *object.Object, w WaitKind, start int64) {
	if start != 0 {
		dispatch(KindUnblocked, uint8(w), t, o, start)
	}
}

//lockvet:noalloc
func Enqueue(t *threading.Thread, depth int) {
	if wanted.Load()&(1<<KindEnqueue) != 0 {
		dispatch(KindEnqueue, 0, t, nil, int64(depth))
	}
}

//lockvet:noalloc
func Park(t *threading.Thread, o *object.Object, w WaitKind, start int64) {
	if start != 0 {
		dispatch(KindPark, uint8(w), t, o, start)
	}
}

//lockvet:noalloc
func Inflate(t *threading.Thread, o *object.Object, c Cause) {
	if wanted.Load()&(1<<KindInflate) != 0 {
		dispatch(KindInflate, uint8(c), t, o, 0)
	}
}

//lockvet:noalloc
func Revoke(t *threading.Thread, o *object.Object, c Cause) {
	if wanted.Load()&(1<<KindRevoke) != 0 {
		dispatch(KindRevoke, uint8(c), t, o, 0)
	}
}

//lockvet:noalloc
func Count(t *threading.Thread, c Counter) {
	if wanted.Load()&(1<<KindCount) != 0 {
		dispatch(KindCount, uint8(c), t, nil, 0)
	}
}
