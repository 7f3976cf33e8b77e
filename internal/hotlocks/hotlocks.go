// Package hotlocks implements the IBM JDK 1.1.2 baseline the paper calls
// "IBM112": a small fixed set of pre-allocated "hot locks" in front of a
// monitor cache.
//
// Per §3 of the paper: "The IBM112 implementation assumes that most
// applications will have a small number of heavily used locks. It
// therefore pre-allocates a small number (32) of hot locks. The system
// begins by using the default fat locks, slightly modified to record
// locking frequency. When a fat lock is detected to be hot, a pointer to
// the hot lock is placed in the header of the object ... One bit in the
// header word indicates whether the word is a hot lock pointer or regular
// header data."
//
// Once an object is hot, locking follows the header pointer, compares a
// thread identifier and increments a count — fast, which is why IBM112
// nearly matches thin locks on NestedSync and beats JDK111 under
// contention on few objects (Figure 4). Its Achilles heel, reproduced
// here, is that only 32 objects can be hot: workloads with larger working
// sets fall back to the global-locked cache, and MultiSync collapses past
// n = 32.
package hotlocks

import (
	"sync"
	"time"

	"thinlock/internal/lockevent"
	"thinlock/internal/monitor"
	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// ErrIllegalMonitorState mirrors monitor.ErrIllegalMonitorState.
var ErrIllegalMonitorState = monitor.ErrIllegalMonitorState

// DefaultSlots is the number of pre-allocated hot locks in the paper.
const DefaultSlots = 32

// DefaultThreshold is the locking frequency at which a fat lock is
// "detected to be hot" and promoted.
const DefaultThreshold = 8

// defaultMaxCold bounds the cold cache before it sweeps quiescent
// entries.
const defaultMaxCold = 1024

// Header encoding: bit 31 flags a hot-lock pointer; bits 30..8 hold the
// hot slot index; the low 8 misc bits stay in place (the displaced
// header data the paper moves into the hot lock structure is, in this
// model, only the misc byte, which we can leave untouched).
const (
	hotBit    uint32 = 1 << 31
	slotShift        = 8
)

func hotWord(slot int, misc uint32) uint32 {
	return hotBit | uint32(slot)<<slotShift | misc&object.MiscMask
}

func slotOf(w uint32) int { return int((w &^ hotBit) >> slotShift) }

// Options configures a HotLocks instance.
type Options struct {
	// Slots is the number of hot locks; 0 means DefaultSlots (32).
	Slots int
	// Threshold is the promotion frequency; 0 means DefaultThreshold.
	Threshold uint32
	// MaxCold bounds the cold cache; 0 means a default of 1024.
	MaxCold int
}

// coldEntry is a cache-resident fat lock recording locking frequency.
type coldEntry struct {
	mon  *monitor.Monitor
	freq uint32
	pins int // threads between lookup and monitor op; guarded by mu
	// promoting marks that a thread has reserved a hot slot for this
	// entry and will install the header once it owns the monitor.
	promoting bool
}

// HotLocks is the IBM112 locker. It implements lockapi.Locker.
type HotLocks struct {
	mu        sync.Mutex
	cold      map[uint64]*coldEntry
	slots     []*monitor.Monitor
	nextSlot  int
	threshold uint32
	maxCold   int
}

// New returns a HotLocks instance with the given options.
func New(opts Options) *HotLocks {
	slots := opts.Slots
	if slots <= 0 {
		slots = DefaultSlots
	}
	threshold := opts.Threshold
	if threshold == 0 {
		threshold = DefaultThreshold
	}
	maxCold := opts.MaxCold
	if maxCold <= 0 {
		maxCold = defaultMaxCold
	}
	return &HotLocks{
		cold:      make(map[uint64]*coldEntry),
		slots:     make([]*monitor.Monitor, slots),
		threshold: threshold,
		maxCold:   maxCold,
	}
}

// NewDefault returns the paper's configuration: 32 hot locks.
func NewDefault() *HotLocks { return New(Options{}) }

// Name implements lockapi.Locker.
func (h *HotLocks) Name() string { return "IBM112" }

// HotCount reports how many hot slots are occupied.
func (h *HotLocks) HotCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.nextSlot
}

// ColdCount reports how many cold cache entries currently exist.
func (h *HotLocks) ColdCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.cold)
}

// Slots reports the configured number of hot-lock slots.
func (h *HotLocks) Slots() int { return len(h.slots) }

// hot returns the hot monitor for a hot header word.
func (h *HotLocks) hot(t *threading.Thread, w uint32) *monitor.Monitor {
	lockevent.Count(t, lockevent.CtrHotOps)
	return h.slots[slotOf(w)]
}

// coldLookup finds or creates the pinned cold entry for o and bumps its
// frequency. It reserves a hot slot when the entry crosses the
// threshold; the reservation index is returned (or -1). A nil entry
// means o has no cold entry: with create unset, none exists; with create
// set, o was promoted since the caller read its header (the promoter
// installs the hot header under h.mu before dropping the cold entry),
// and the caller must retry through the hot path rather than create a
// second monitor for o.
func (h *HotLocks) coldLookup(t *threading.Thread, o *object.Object, create bool) (*coldEntry, int) {
	lockevent.Count(t, lockevent.CtrColdOps)
	h.mu.Lock()
	e := h.cold[o.ID()]
	if e == nil {
		if !create || o.Header()&hotBit != 0 {
			h.mu.Unlock()
			return nil, -1
		}
		if len(h.cold) >= h.maxCold {
			h.sweepLocked()
		}
		e = &coldEntry{mon: monitor.New()}
		h.cold[o.ID()] = e
	}
	e.pins++
	slot := -1
	if create {
		e.freq++
		if e.freq >= h.threshold && !e.promoting && h.nextSlot < len(h.slots) {
			// Reserve a slot; the header is installed by the caller
			// once it owns the monitor, so no other thread can be
			// mid-critical-section when the pointer appears.
			e.promoting = true
			slot = h.nextSlot
			h.nextSlot++
		}
	}
	h.mu.Unlock()
	return e, slot
}

// sweepLocked drops quiescent, unpinned cold entries. Caller holds h.mu.
func (h *HotLocks) sweepLocked() {
	lockevent.Count(nil, lockevent.CtrColdSweeps)
	for id, e := range h.cold {
		if e.pins == 0 && !e.promoting && e.mon.Quiescent() {
			delete(h.cold, id)
		}
	}
}

// unpin releases a pin taken by coldLookup (nil for none).
func (h *HotLocks) unpin(e *coldEntry) {
	if e == nil {
		return
	}
	h.mu.Lock()
	e.pins--
	h.mu.Unlock()
}

// Lock implements lockapi.Locker. Like JDK111, every IBM112 acquisition
// routes through a monitor (hot slot or cold cache) — there is no
// header-only fast path — so the whole operation is reported as a slow
// path.
func (h *HotLocks) Lock(t *threading.Thread, o *object.Object) {
	start := lockevent.SlowEnter(t, o)
	h.lockBody(t, o)
	lockevent.SlowExit(t, o, start)
	lockevent.Emit(lockevent.KindAcquire, t, o)
}

// beforeColdLookup, when set by a test, runs between lockBody's header
// read and its cold-cache lookup: the window a concurrent promotion can
// fall into.
var beforeColdLookup func(t *threading.Thread)

func (h *HotLocks) lockBody(t *threading.Thread, o *object.Object) {
	w := o.Header()
	if w&hotBit == 0 {
		if beforeColdLookup != nil {
			beforeColdLookup(t)
		}
		if e, slot := h.coldLookup(t, o, true); e != nil {
			lockevent.Blocked(t, o, lockevent.WaitFat)
			e.mon.Enter(t)
			if slot >= 0 {
				// Promote: we own the monitor, so no thread is inside a
				// critical section on this object; threads blocked on
				// the monitor keep working because the slot aliases the
				// same monitor structure. The hot header goes in before
				// the cold entry goes out, both under h.mu, so a thread
				// that read the cold header finds one or the other in
				// coldLookup.
				h.mu.Lock()
				h.slots[slot] = e.mon
				o.SetHeader(hotWord(slot, w))
				delete(h.cold, o.ID())
				h.mu.Unlock()
				lockevent.Count(t, lockevent.CtrHotPromotions)
			}
			h.unpin(e)
			return
		}
		w = o.Header() // promoted since the first read: now hot for good
	}
	lockevent.Blocked(t, o, lockevent.WaitFat)
	h.hot(t, w).Enter(t)
}

// Unlock implements lockapi.Locker.
func (h *HotLocks) Unlock(t *threading.Thread, o *object.Object) error {
	err := h.unlockBody(t, o)
	if err == nil {
		lockevent.Emit(lockevent.KindRelease, t, o)
	}
	return err
}

func (h *HotLocks) unlockBody(t *threading.Thread, o *object.Object) error {
	lockevent.Emit(lockevent.KindUnlockSlow, t, o)
	m, e := h.owned(t, o)
	if m == nil {
		return ErrIllegalMonitorState
	}
	defer h.unpin(e)
	return m.Exit(t)
}

// owned resolves o's monitor for an operation only its owner may
// perform: the hot slot, or o's pinned cold entry, which the caller
// releases with unpin. nil if o has neither, so t cannot own it.
func (h *HotLocks) owned(t *threading.Thread, o *object.Object) (*monitor.Monitor, *coldEntry) {
	if w := o.Header(); w&hotBit != 0 {
		return h.hot(t, w), nil
	}
	if e, _ := h.coldLookup(t, o, false); e != nil {
		return e.mon, e
	}
	// The object may have been promoted between the header read and the
	// cache lookup.
	if w := o.Header(); w&hotBit != 0 {
		return h.hot(t, w), nil
	}
	return nil, nil
}

// Wait implements lockapi.Locker.
func (h *HotLocks) Wait(t *threading.Thread, o *object.Object, d time.Duration) (bool, error) {
	m, e := h.owned(t, o)
	if m == nil {
		return false, ErrIllegalMonitorState
	}
	defer h.unpin(e)
	lockevent.Emit(lockevent.KindWaitBegin, t, o)
	notified, err := m.Wait(t, d)
	lockevent.Emit(lockevent.KindWaitEnd, t, o)
	return notified, err
}

// Notify implements lockapi.Locker.
func (h *HotLocks) Notify(t *threading.Thread, o *object.Object) error {
	m, e := h.owned(t, o)
	if m == nil {
		return ErrIllegalMonitorState
	}
	defer h.unpin(e)
	return m.Notify(t)
}

// NotifyAll implements lockapi.Locker.
func (h *HotLocks) NotifyAll(t *threading.Thread, o *object.Object) error {
	m, e := h.owned(t, o)
	if m == nil {
		return ErrIllegalMonitorState
	}
	defer h.unpin(e)
	return m.NotifyAll(t)
}
