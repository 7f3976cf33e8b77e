// Package biased implements lock reservation (biased locking) on the
// paper's 24-bit lock field — the historically-next design after thin
// locks, which eliminates even the one compare-and-swap the thin-lock
// fast path pays on every initial acquisition.
//
// An unlocked object's first locker does not take the lock so much as
// *reserve* the object: it installs a biased word (core.BiasedWord)
// carrying its thread index and a small class epoch, and records the
// reservation in one of its per-thread bias slots
// (threading.BiasSlot). From then on the owner's lock and unlock are a
// slot lookup, one store of the new recursion depth into the slot, and
// one validating load of the header — no locked instruction where the
// kernel offers a process-wide barrier (arch.AsymmetricFences), and the
// owner never writes the shared lock word at all. The depth store
// followed by the header load is the owner's half of a Dekker-style
// handshake with revokers.
//
// Revocation. When another thread needs a reserved object it CASes the
// biased word to a revocation sentinel (owner index 0), which makes it
// the only writer of the word. It then finds the reserving thread
// through the registry (threading.Registry.Lookup), reads the depth the
// owner last published in its bias slot — the revocation's
// linearization point — and rewrites the header to a conventional
// word: thin owned-by-reserver at that depth, or unlocked when the
// depth was 0. Finally it unparks the reserver (threading.Parker) in
// case it is stalled mid-handshake. The handshake is asymmetric (Dice,
// Huang & Yang's asymmetric Dekker synchronization): the owner's depth
// store is a release store (arch.StoreRelease64, a plain MOV on amd64)
// that its header load may pass, and the rare revoker fences for both
// sides with arch.ProcessBarrier between its CAS and its depth read.
// Either the revoker's depth read then includes the owner's in-flight
// operation, or the owner's validating load sees the sentinel and
// reconciles against whatever word the revoker published. Without a
// process-wide barrier the owner's store is sequentially consistent and
// the same argument holds symmetrically. A revoked object can never be
// re-reserved (a sticky flags bit records the revocation), so the
// fall-back is exactly the paper's protocol: thin words with a CAS
// acquire, inflating to an internal/monitor fat lock on contention,
// count overflow, or Wait.
//
// Epochs. Each biased word carries a class epoch. When a class of
// objects churns owners — revocation after revocation — the class's
// epoch is bumped (bulk rebias): reservations stamped with the old
// epoch become *stale*, and a contender finding a stale, unheld
// reservation takes the bias over for itself instead of revoking to
// thin, at the cost of one CAS. Past a second threshold the class is
// declared unbiasable (bulk revoke) and new objects of the class go
// straight to thin words.
package biased

import (
	"sync"
	"sync/atomic"
	"time"

	"thinlock/internal/arch"
	"thinlock/internal/core"
	"thinlock/internal/lockevent"
	"thinlock/internal/monitor"
	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// ErrIllegalMonitorState is returned when a thread unlocks, waits on or
// notifies an object whose monitor it does not own.
var ErrIllegalMonitorState = monitor.ErrIllegalMonitorState

// FlagBiasDead is the sticky object-flags bit a revoker sets before
// publishing the walked word: a revoked object is never re-reserved.
// Without it a spinning contender could chase an object that re-biases
// between its header loads. Bit 0 is core.FlagFLC.
const FlagBiasDead uint32 = 1 << 1

// maxBiasDepth is the deepest recursion a reservation can carry: a
// revocation at depth d seeds a thin count of d−1, which must fit the
// 7-bit count space below core.BiasBit. The owner self-revokes directly
// to a fat lock on the acquisition past the cap.
const maxBiasDepth = core.BiasMaxThinCount + 1

// thinNestedLimit is the XOR-check bound for this implementation's thin
// words (count capped at core.BiasMaxThinCount so core.BiasBit stays
// unambiguous): after XORing the loaded word with the owner's
// pre-shifted index, any value below it means "thin, owned by this
// thread, count < 127".
const thinNestedLimit = uint32(core.BiasMaxThinCount) << core.CountShift

// Default heuristic thresholds (see Options).
const (
	DefaultEpochBits       = 2
	DefaultRebiasThreshold = 4
	DefaultRevokeThreshold = 16
)

// Options configures a biased Locker.
type Options struct {
	// DisableBias turns reservation off entirely: the implementation
	// degenerates to a plain thin lock (with the narrower 7-bit count).
	// Useful as an ablation baseline.
	DisableBias bool
	// DisableRebias turns off the epoch machinery: reservations are
	// never transferred and class epochs never bump, so every
	// contended reservation pays a full revocation.
	DisableRebias bool
	// EpochBits is the width of the per-class bias epoch stored in the
	// biased word (1..core.MaxBiasEpochBits; 0 means DefaultEpochBits).
	EpochBits int
	// RebiasThreshold is the number of revocations of a class after
	// which its epoch is bumped, invalidating (and making
	// transferable) all outstanding reservations of that class
	// (0 means DefaultRebiasThreshold).
	RebiasThreshold int
	// RevokeThreshold is the number of revocations of a class after
	// which the class becomes unbiasable (0 means
	// DefaultRevokeThreshold).
	RevokeThreshold int
	// CPU is the simulated machine for the thin-lock fall-back CAS
	// (the biased fast path needs no CAS on any machine). The default
	// is PowerPCUP.
	CPU arch.CPU
	// TestMutations plants deliberate protocol bugs so the
	// differential checker can prove it detects them. Test-only.
	TestMutations Mutations
}

// Stats is a snapshot of a biased Locker's inflation counters, which
// the differential checker holds against the monitor count after
// quiescence. Every other fact of the protocol (installs, biased
// acquisitions, transfers, revocations, bulk rebias and revoke, spins)
// is reported only through internal/lockevent; enable
// internal/telemetry to count them.
type Stats struct {
	// InflationsContention counts inflations of the thin fall-back
	// caused by contention.
	InflationsContention uint64
	// InflationsOverflow counts inflations by count overflow (biased
	// self-revocation past the cap, or the thin fall-back's 129th
	// nested lock).
	InflationsOverflow uint64
	// InflationsWait counts inflations caused by a wait operation.
	InflationsWait uint64
	// FatLocks is the number of monitors ever allocated.
	FatLocks int
}

// Inflations returns the total number of inflations for any cause.
// Every allocated monitor comes from exactly one inflation, so this
// always equals FatLocks after quiescence.
func (s Stats) Inflations() uint64 {
	return s.InflationsContention + s.InflationsOverflow + s.InflationsWait
}

// classBias is the per-class bulk-rebias/bulk-revoke state. It is only
// touched on slow paths (install, revocation); the biased fast path
// never checks epochs — a reservation is valid for its owner no matter
// how stale, staleness only changes what a *contender* does with it.
type classBias struct {
	epoch       atomic.Uint32
	revocations atomic.Uint32
	unbiasable  atomic.Bool
}

// Locker implements lockapi.Locker with lock reservation over the
// standard thin/fat fall-back.
type Locker struct {
	table *monitor.Table
	cpu   arch.CPU
	mut   Mutations

	disableBias   bool
	disableRebias bool
	epochBits     int
	rebiasEvery   uint32
	revokeAt      uint32

	classes sync.Map // class string → *classBias

	inflContention atomic.Uint64
	inflOverflow   atomic.Uint64
	inflWait       atomic.Uint64
}

// New returns a biased Locker with the given options.
func New(opts Options) *Locker {
	bits := opts.EpochBits
	if bits <= 0 || bits > core.MaxBiasEpochBits {
		bits = DefaultEpochBits
	}
	rebias := opts.RebiasThreshold
	if rebias <= 0 {
		rebias = DefaultRebiasThreshold
	}
	revoke := opts.RevokeThreshold
	if revoke <= 0 {
		revoke = DefaultRevokeThreshold
	}
	return &Locker{
		table:         monitor.NewTable(),
		cpu:           opts.CPU,
		mut:           opts.TestMutations,
		disableBias:   opts.DisableBias,
		disableRebias: opts.DisableRebias,
		epochBits:     bits,
		rebiasEvery:   uint32(rebias),
		revokeAt:      uint32(revoke),
	}
}

// NewDefault returns the standard configuration.
func NewDefault() *Locker { return New(Options{}) }

// Name implements lockapi.Locker.
func (l *Locker) Name() string {
	switch {
	case l.disableBias:
		return "Biased-off"
	case l.disableRebias:
		return "Biased-norebias"
	default:
		return "Biased"
	}
}

// Stats returns a snapshot of the instance's counters.
func (l *Locker) Stats() Stats {
	return Stats{
		InflationsContention: l.inflContention.Load(),
		InflationsOverflow:   l.inflOverflow.Load(),
		InflationsWait:       l.inflWait.Load(),
		FatLocks:             l.table.Len(),
	}
}

// classFor returns (creating on first use) the per-class bias state.
func (l *Locker) classFor(class string) *classBias {
	if c, ok := l.classes.Load(class); ok {
		return c.(*classBias)
	}
	c, _ := l.classes.LoadOrStore(class, new(classBias))
	return c.(*classBias)
}

// Lock acquires o's monitor for t. The biased fast path: find the
// reservation slot, publish the new depth with one store, and validate
// that the reservation still stands. No compare-and-swap, no fence
// where the revoker pays it (arch.AsymmetricFences), and no write to
// shared memory at all.
func (l *Locker) Lock(t *threading.Thread, o *object.Object) {
	held := false
	if s := t.BiasSlotFor(o.ID()); s != nil {
		if d := s.Depth(); d < maxBiasDepth {
			s.SetDepth(d + 1) // Dekker publish
			if atomic.LoadUint32(o.HeaderAddr()) == s.Word() || l.mut.SkipOwnerValidation {
				lockevent.Count(t, lockevent.CtrBiasedAcquires)
				held = true
			} else {
				// False when the reservation was revoked at depth 0 and
				// not granted to us; acquire conventionally.
				held = l.reconcileLock(t, o, s, d+1)
			}
		}
	}
	if !held {
		l.lockSlow(t, o)
	}
	lockevent.Emit(lockevent.KindAcquire, t, o)
}

// Unlock releases one level of o's monitor. The biased fast path
// mirrors Lock: one store of the decremented depth, one validating
// load.
func (l *Locker) Unlock(t *threading.Thread, o *object.Object) error {
	if s := t.BiasSlotFor(o.ID()); s != nil {
		if d := s.Depth(); d > 0 {
			s.SetDepth(d - 1) // Dekker publish
			if atomic.LoadUint32(o.HeaderAddr()) != s.Word() && !l.mut.SkipOwnerValidation {
				l.reconcileUnlock(t, o, s, d-1)
			}
			lockevent.Emit(lockevent.KindRelease, t, o)
			return nil
		}
		if atomic.LoadUint32(o.HeaderAddr()) == s.Word() {
			// Reserved by us but not held: reservation alone does not
			// confer ownership.
			return ErrIllegalMonitorState
		}
		// Stale slot from an old bias generation (the reservation was
		// transferred or revoked while unheld).
		s.Release()
	}
	err := l.unlockSlow(t, o)
	if err == nil {
		lockevent.Emit(lockevent.KindRelease, t, o)
	}
	return err
}

// Wait implements lockapi.Locker. Waiting requires queues: a held
// reservation is self-revoked straight to a fat lock; a thin-held
// object inflates as in the paper.
func (l *Locker) Wait(t *threading.Thread, o *object.Object, d time.Duration) (bool, error) {
	lockevent.Emit(lockevent.KindWaitBegin, t, o)
	ok, err := l.waitBody(t, o, d)
	lockevent.Emit(lockevent.KindWaitEnd, t, o)
	return ok, err
}

func (l *Locker) waitBody(t *threading.Thread, o *object.Object, d time.Duration) (bool, error) {
	if s := t.BiasSlotFor(o.ID()); s != nil && s.Depth() > 0 {
		if m := l.waitRevoke(t, o, s); m != nil {
			return m.Wait(t, d)
		}
		// A concurrent revoker walked the reservation to a
		// conventional word first; fall through to the header.
	}
	for {
		w := o.Header()
		switch {
		case core.IsInflated(w):
			return l.table.Get(core.FatIndex(w)).Wait(t, d)
		case core.IsBiasRevoking(w):
			l.awaitRevocation(t, o)
		case core.IsBiased(w):
			// Reserved (by us unheld, or by another thread): not owned.
			return false, ErrIllegalMonitorState
		case w&core.TIDMask == t.Shifted():
			l.inflWait.Add(1)
			lockevent.Inflate(t, o, lockevent.CauseWait)
			m := l.inflate(t, o, core.ThinCount(w)+1)
			return m.Wait(t, d)
		default:
			return false, ErrIllegalMonitorState
		}
	}
}

// Notify implements lockapi.Locker. A reserved or thin-locked object
// can have no waiters (waiting revokes/inflates first), so notify while
// owning one is a no-op.
func (l *Locker) Notify(t *threading.Thread, o *object.Object) error {
	if l.notifyFast(t, o) {
		return nil
	}
	return l.notifySlow(t, o, false)
}

// NotifyAll implements lockapi.Locker.
func (l *Locker) NotifyAll(t *threading.Thread, o *object.Object) error {
	if l.notifyFast(t, o) {
		return nil
	}
	return l.notifySlow(t, o, true)
}

// notifyFast reports whether t holds o through a live reservation — in
// which case o can have no waiters and the notify is a no-op.
func (l *Locker) notifyFast(t *threading.Thread, o *object.Object) bool {
	s := t.BiasSlotFor(o.ID())
	return s != nil && s.Depth() > 0 && atomic.LoadUint32(o.HeaderAddr()) == s.Word()
}

// notifySlow resolves the header conventionally.
func (l *Locker) notifySlow(t *threading.Thread, o *object.Object, all bool) error {
	for {
		w := o.Header()
		switch {
		case core.IsInflated(w):
			m := l.table.Get(core.FatIndex(w))
			if all {
				return m.NotifyAll(t)
			}
			return m.Notify(t)
		case core.IsBiasRevoking(w):
			// Our own held reservation may be mid-revocation; once the
			// revoker publishes the walked word we can classify it.
			l.awaitRevocation(t, o)
		case core.IsBiased(w):
			return ErrIllegalMonitorState
		case w&core.TIDMask == t.Shifted():
			return nil
		default:
			return ErrIllegalMonitorState
		}
	}
}

// Inflated reports whether o's lock is currently in the fat state.
func (l *Locker) Inflated(o *object.Object) bool { return core.IsInflated(o.Header()) }

// Biased reports whether o currently carries a live reservation.
func (l *Locker) Biased(o *object.Object) bool {
	w := o.Header()
	return core.IsBiased(w) && !core.IsBiasRevoking(w)
}

// HolderIndex returns the thread index currently holding o's lock, or 0
// if unlocked. A reservation alone is not a held lock: for a biased
// word the depth lives in the reserver's slot, which cannot be read
// reliably from outside a revocation, so biased words report 0; use
// Biased to distinguish reserved-unheld from unlocked.
func (l *Locker) HolderIndex(o *object.Object) uint16 {
	w := o.Header()
	if core.IsBiased(w) {
		return 0
	}
	if !core.IsInflated(w) {
		return core.ThinOwner(w)
	}
	owner := l.table.Get(core.FatIndex(w)).Owner()
	if owner == nil {
		return 0
	}
	return owner.Index()
}

// Monitor returns the fat lock of an inflated object, or nil. Intended
// for tests and diagnostics.
func (l *Locker) Monitor(o *object.Object) *monitor.Monitor {
	w := o.Header()
	if !core.IsInflated(w) {
		return nil
	}
	return l.table.Get(core.FatIndex(w))
}
