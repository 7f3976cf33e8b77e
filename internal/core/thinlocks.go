package core

import (
	"sync/atomic"
	"time"

	"thinlock/internal/arch"
	"thinlock/internal/lockevent"
	"thinlock/internal/monitor"
	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// ErrIllegalMonitorState is returned when a thread unlocks, waits on or
// notifies an object whose monitor it does not own.
var ErrIllegalMonitorState = monitor.ErrIllegalMonitorState

// Variant selects one of the implementation alternatives studied in
// §3.5 / Figure 6 of the paper.
type Variant int

const (
	// VariantStandard is the paper's final implementation ("ThinLock"
	// in Figure 6): the machine type is tested dynamically on every
	// lock and unlock operation, selecting the uniprocessor,
	// multiprocessor or kernel-CAS path.
	VariantStandard Variant = iota
	// VariantInline is the fastest variant: the uniprocessor path with
	// no dynamic machine test ("Inline" in Figure 6).
	VariantInline
	// VariantFnCall routes lock and unlock through single out-of-line
	// routines ("FnCall" in Figure 6).
	VariantFnCall
	// VariantMPSync is the multiprocessor path: isync after lock and
	// sync around unlock ("MP Sync" in Figure 6).
	VariantMPSync
	// VariantKernelCAS models old POWER machines whose compare-and-swap
	// is a kernel service (§3.5.1).
	VariantKernelCAS
	// VariantUnlockCAS performs the unlock with a compare-and-swap
	// instead of a plain store ("UnlkC&S" in Figure 6), demonstrating
	// the value of the store-only unlock discipline.
	VariantUnlockCAS
	// VariantNOP removes all locking ("NOP" in Figure 6, the "speed of
	// light"): lock and unlock do nothing. Only meaningful for
	// single-threaded measurement.
	VariantNOP
)

// String returns the Figure 6 label for the variant.
func (v Variant) String() string {
	switch v {
	case VariantStandard:
		return "ThinLock"
	case VariantInline:
		return "Inline"
	case VariantFnCall:
		return "FnCall"
	case VariantMPSync:
		return "MP Sync"
	case VariantKernelCAS:
		return "KernelC&S"
	case VariantUnlockCAS:
		return "UnlkC&S"
	case VariantNOP:
		return "NOP"
	default:
		return "unknown-variant"
	}
}

// Options configures a ThinLocks instance.
type Options struct {
	// Variant selects the implementation alternative. The default is
	// VariantStandard.
	Variant Variant
	// CPU is the simulated machine the Standard variant's dynamic test
	// selects for. Ignored by the other variants, which hard-wire a
	// machine. The default is PowerPCUP.
	CPU arch.CPU
	// EnableDeflation turns on the deflation extension (not in the
	// paper, whose locks stay inflated for the object's lifetime):
	// a fat lock whose queues are empty is turned back into a thin
	// lock on final unlock.
	EnableDeflation bool
	// RecycleMonitors turns on the compact-monitor extension (after
	// Dice & Kogan's Compact Java Monitors; implies EnableDeflation):
	// a deflated monitor's table index is retired through a grace
	// period and then reused by later inflations, so the monitor
	// table's footprint tracks the peak number of simultaneously
	// inflated objects instead of growing monotonically with every
	// inflation. Readers of possibly-stale monitor indices pin the
	// table around the header reload (see monitor.Table).
	RecycleMonitors bool
	// QueuedInflation turns on the queued-contention extension (the
	// Tasuki-lock protocol; see queued.go): contenders park on a
	// contention queue instead of spinning, signalled by a flat-lock-
	// contention bit the owner checks after each final unlock.
	QueuedInflation bool
	// CountBits narrows the nested-count field for the §3.2 ablation
	// ("our use of 8 bits for the lock count is highly conservative;
	// 2 or 3 bits is probably sufficient"). Valid values are 1..8;
	// 0 means the paper's 8. A lock nests up to 2^CountBits times
	// before the next acquisition overflows and inflates. The field
	// always occupies the same 8 bit positions; narrowing only lowers
	// the overflow threshold.
	CountBits int
	// TestMutations plants deliberate protocol bugs so the differential
	// checker can prove it detects them. Test-only; see mutation.go.
	TestMutations Mutations
}

// Stats is a snapshot of a ThinLocks instance's internal counters.
type Stats struct {
	// InflationsContention counts inflations caused by a second thread
	// contending for a thin lock.
	InflationsContention uint64
	// InflationsOverflow counts inflations caused by the 257th nested
	// lock.
	InflationsOverflow uint64
	// InflationsWait counts inflations caused by a wait operation on a
	// thin-locked object.
	InflationsWait uint64
	// SpinRounds counts individual back-off pauses across all spins.
	SpinRounds uint64
	// Deflations counts fat locks turned back into thin locks (always 0
	// unless the deflation extension is enabled).
	Deflations uint64
	// QueuedParks counts contenders that parked on a contention queue
	// (always 0 unless queued inflation is enabled).
	QueuedParks uint64
	// FLCWakeups counts owner-side contention-queue wakeups.
	FLCWakeups uint64
	// FatLocks is the number of monitors ever allocated.
	FatLocks int
	// MonitorFrees counts monitor indices returned to the recycler
	// (always 0 unless monitor recycling is enabled).
	MonitorFrees uint64
	// MonitorRecycles counts inflations that reused a recycled index.
	MonitorRecycles uint64
	// LiveMonitors is the number of monitors currently bound to an
	// object (FatLocks minus MonitorFrees).
	LiveMonitors int
	// TableSpan is the size of the monitor index space in use — the
	// table's memory footprint. With recycling it tracks the peak
	// number of simultaneously inflated objects; without, it equals
	// FatLocks.
	TableSpan int
}

// Inflations returns the total number of inflations for any cause.
func (s Stats) Inflations() uint64 {
	return s.InflationsContention + s.InflationsOverflow + s.InflationsWait
}

// ThinLocks implements lockapi.Locker with the paper's algorithm. It is
// a veneer over the heavy-weight monitor subsystem: uncontended and
// nested locking never touch a monitor.
type ThinLocks struct {
	table   *monitor.Table
	variant Variant
	cpu     arch.CPU
	// plain selects the one-frame fast path of Lock and Unlock: the
	// Standard variant on a uniprocessor, or Inline, without queued
	// inflation. Testing it is the §3.5.1 dynamic machine test, picked
	// once at construction.
	plain     bool
	deflation bool
	recycle   bool
	queued    bool
	flc       flcQueue
	mut       Mutations
	// nestedLimit is the XOR-check bound: maxCount << CountShift.
	nestedLimit uint32
	// maxCount is the largest encodable count, (1 << CountBits) - 1.
	maxCount uint32

	inflContention atomic.Uint64
	inflOverflow   atomic.Uint64
	inflWait       atomic.Uint64
	spinRounds     atomic.Uint64
	deflations     atomic.Uint64
	queuedParks    atomic.Uint64
	flcWakeups     atomic.Uint64
}

// New returns a ThinLocks instance with the given options.
func New(opts Options) *ThinLocks {
	bits := opts.CountBits
	if bits <= 0 || bits > 8 {
		bits = 8
	}
	maxCount := uint32(1)<<bits - 1
	uniprocessor := opts.Variant == VariantInline ||
		opts.Variant == VariantStandard && opts.CPU == arch.PowerPCUP
	tl := &ThinLocks{
		table:       monitor.NewTable(),
		variant:     opts.Variant,
		cpu:         opts.CPU,
		plain:       uniprocessor && !opts.QueuedInflation,
		deflation:   opts.EnableDeflation || opts.RecycleMonitors,
		recycle:     opts.RecycleMonitors,
		queued:      opts.QueuedInflation,
		mut:         opts.TestMutations,
		nestedLimit: maxCount << CountShift,
		maxCount:    maxCount,
	}
	return tl
}

// NewDefault returns the standard configuration: dynamic machine test on
// a PowerPC uniprocessor, no deflation.
func NewDefault() *ThinLocks { return New(Options{}) }

// Name implements lockapi.Locker.
func (l *ThinLocks) Name() string {
	if l.variant == VariantStandard {
		return "ThinLock"
	}
	return "ThinLock/" + l.variant.String()
}

// Variant returns the configured implementation variant.
func (l *ThinLocks) Variant() Variant { return l.variant }

// Stats returns a snapshot of the instance's counters.
func (l *ThinLocks) Stats() Stats {
	return Stats{
		InflationsContention: l.inflContention.Load(),
		InflationsOverflow:   l.inflOverflow.Load(),
		InflationsWait:       l.inflWait.Load(),
		SpinRounds:           l.spinRounds.Load(),
		Deflations:           l.deflations.Load(),
		QueuedParks:          l.queuedParks.Load(),
		FLCWakeups:           l.flcWakeups.Load(),
		FatLocks:             l.table.Len(),
		MonitorFrees:         l.table.Freed(),
		MonitorRecycles:      l.table.Recycled(),
		LiveMonitors:         l.table.Live(),
		TableSpan:            l.table.Span(),
	}
}

// Lock acquires o's monitor for t (§2.3.1, §2.3.3, §2.3.4). On the
// plain path the common case runs in this frame: load, and if no lock
// bits are set, one compare-and-swap. Every other configuration takes
// the variant dispatch. The acquire event is raised after the
// acquisition so lockdep's order graph sees every lock exactly when it
// is held; with no sink wanting it the check costs one load and a
// not-taken branch. The NOP variant takes no lock and raises no event.
func (l *ThinLocks) Lock(t *threading.Thread, o *object.Object) {
	if l.plain {
		if !acquirePlain(o.HeaderAddr(), t.Shifted()) {
			l.lockSlow(t, o, arch.PowerPCUP, false)
		}
	} else {
		l.lockDispatch(t, o)
	}
	if lockevent.Wants(lockevent.KindAcquire) && l.variant != VariantNOP {
		lockevent.Emit(lockevent.KindAcquire, t, o)
	}
}

func (l *ThinLocks) lockDispatch(t *threading.Thread, o *object.Object) {
	switch l.variant {
	case VariantStandard:
		// The dynamic machine-type test of §3.5.1: selected on every
		// operation, costing one predictable branch.
		switch l.cpu {
		case arch.PowerPCMP:
			l.lockFast(t, o, arch.PowerPCMP, true)
		case arch.POWER:
			l.lockFast(t, o, arch.POWER, false)
		default:
			l.lockFast(t, o, arch.PowerPCUP, false)
		}
	case VariantInline, VariantUnlockCAS:
		l.lockInline(t, o)
	case VariantFnCall:
		lockFn(l, t, o)
	case VariantMPSync:
		l.lockFast(t, o, arch.PowerPCMP, true)
	case VariantKernelCAS:
		l.lockFast(t, o, arch.POWER, false)
	case VariantNOP:
		// Locking removed: the speed of light.
	}
}

// lockInline is the leanest fast path: load, test, compare-and-swap.
// This is the paper's 17-instruction common case. A word with any lock
// bits set (nested, inflated or owned elsewhere) would fail the CAS, so
// it goes straight to the slow path without issuing one.
func (l *ThinLocks) lockInline(t *threading.Thread, o *object.Object) {
	if !acquirePlain(o.HeaderAddr(), t.Shifted()) {
		l.lockSlow(t, o, arch.PowerPCUP, false)
	}
}

// acquirePlain takes the unlocked thin word at hp for the thread whose
// shifted index is owner, with one compare-and-swap, and reports
// whether it did. Lock inlines it on the plain path.
func acquirePlain(hp *uint32, owner uint32) bool {
	w := atomic.LoadUint32(hp)
	return w&^MiscMask == 0 && atomic.CompareAndSwapUint32(hp, w, w|owner)
}

// lockFn is the out-of-line lock routine of the FnCall variant.
//
//go:noinline
func lockFn(l *ThinLocks, t *threading.Thread, o *object.Object) {
	l.lockInline(t, o)
}

// lockFast is the machine-parameterized fast path. Like lockInline it
// issues no CAS that must fail.
func (l *ThinLocks) lockFast(t *threading.Thread, o *object.Object, cpu arch.CPU, fence bool) {
	hp := o.HeaderAddr()
	if w := atomic.LoadUint32(hp); w&^MiscMask == 0 && arch.CAS(cpu, hp, w, w|t.Shifted()) {
		if fence {
			arch.ISync()
		}
		return
	}
	l.lockSlow(t, o, cpu, fence)
}

// lockSlow handles every case except an initial lock of an unlocked
// object: nested locking, locking an inflated object, count overflow,
// and contention (§2.3.3–§2.3.4). The slow-path enter/exit events are
// raised here, off the fast path.
func (l *ThinLocks) lockSlow(t *threading.Thread, o *object.Object, cpu arch.CPU, fence bool) {
	start := lockevent.SlowEnter(t, o)
	l.lockSlowBody(t, o, cpu, fence)
	lockevent.SlowExit(t, o, start)
}

// lockSlowBody is the slow-path state machine proper.
func (l *ThinLocks) lockSlowBody(t *threading.Thread, o *object.Object, cpu arch.CPU, fence bool) {
	hp := o.HeaderAddr()
	shifted := t.Shifted()
	var b arch.Backoff
	spun := false
	for {
		w := atomic.LoadUint32(hp)
		x := w ^ shifted
		switch {
		case x < l.nestedLimit:
			// Thin, owned by this thread, count < 255: nested lock.
			// The owner may update the word with a plain store.
			arch.StoreRelease(hp, w+CountUnit)
			return

		case IsInflated(w):
			lockevent.Blocked(t, o, lockevent.WaitFat)
			var m *monitor.Monitor
			if l.recycle {
				// With index recycling the index in w may already have
				// been handed to a different object's monitor; re-read
				// the header under a table pin so the recycler cannot
				// reuse the index inside our lookup window.
				if m = l.pinnedFat(hp, t); m == nil {
					continue // deflated between loads; retry the header
				}
			} else {
				m = l.table.Get(FatIndex(w))
			}
			if l.enterFat(m, t) {
				if fence {
					arch.ISync()
				}
				return
			}
			// The monitor was retired by deflation; the header no
			// longer (or soon will no longer) point at it. Retry.

		case x&TIDMask == 0:
			// Thin, owned by this thread, count saturated: the next
			// lock would overflow the count field, so inflate,
			// carrying the full nesting depth into the fat lock.
			// With the paper's 8-bit field this is the 257th lock.
			l.inflOverflow.Add(1)
			lockevent.Inflate(t, o, lockevent.CauseOverflow)
			locks := l.maxCount + 2
			if l.mut.OverflowOffByOne {
				locks-- // seeded bug: one recursion level lost
			}
			l.inflate(t, o, locks)
			return

		case w&TIDMask == 0:
			// Unlocked. If we spun to get here the object has shown
			// contention, so once we win the thin lock we inflate it,
			// banking on the locality-of-contention principle: "if
			// there is contention for an object once, there is likely
			// to be contention for it again" (§2.3.4).
			if arch.CAS(cpu, hp, w, w&MiscMask|shifted) {
				if spun {
					l.inflContention.Add(1)
					lockevent.Inflate(t, o, lockevent.CauseContention)
					l.inflate(t, o, 1)
				}
				if fence {
					arch.ISync()
				}
				return
			}
			lockevent.Emit(lockevent.KindCASFail, t, o)

		default:
			// Thin-locked by another thread. Our discipline forbids
			// writing the lock word, so either park on the contention
			// queue (queued-inflation extension) or spin with
			// exponential back-off until the owner releases (§2.3.4).
			spun = true
			if l.queued {
				lockevent.Blocked(t, o, lockevent.WaitQueued)
				l.queueWait(t, o)
			} else {
				l.spinRounds.Add(1)
				lockevent.Spin(t, o, lockevent.WaitSpin)
				b.Pause()
			}
		}
	}
}

// pinnedFat resolves the object header at hp to its fat monitor under a
// table reader pin: the pin is published first, the header is re-read,
// and only then is the index dereferenced, so a concurrent deflation
// cannot recycle the index between the load and the Get (monitor.Table's
// grace period holds it back until we unpin). Returns nil if the header
// is no longer inflated. The monitor pointer stays valid after unpinning
// — monitor structs are never reused, so the worst a latecomer sees is a
// permanently retired monitor, answered by EnterIfActive.
//
// Exit/Wait/Notify need no pin: they are owner-validated. If the caller
// owns the fat lock the index binding cannot change (only the owner can
// retire it), and if it does not, any monitor the stale index resolves
// to is one the caller cannot own (a fresh monitor's owner is seeded as
// its inflater and changes only by queue handoff), so the operation
// fails with ErrIllegalMonitorState exactly as it must.
func (l *ThinLocks) pinnedFat(hp *uint32, t *threading.Thread) *monitor.Monitor {
	if l.mut.DeflateEpochSkip {
		// Seeded bug: dereference the possibly-stale index with no pin
		// and no header re-read, dwelling in the window to make the
		// recycle race schedulable (the sleep is a legal schedule; only
		// the missing grace protection is the bug).
		w := atomic.LoadUint32(hp)
		time.Sleep(200 * time.Microsecond)
		if !IsInflated(w) {
			return nil
		}
		return l.table.Get(FatIndex(w))
	}
	token := l.table.Pin(t.Index())
	w := atomic.LoadUint32(hp)
	if !IsInflated(w) {
		l.table.Unpin(token)
		return nil
	}
	m := l.table.Get(FatIndex(w))
	l.table.Unpin(token)
	return m
}

// enterFat enters a fat lock, honoring the deflation extension: it
// reports false if the monitor was retired, in which case the caller
// must re-read the object header.
func (l *ThinLocks) enterFat(m *monitor.Monitor, t *threading.Thread) bool {
	if !l.deflation {
		m.Enter(t)
		return true
	}
	return m.EnterIfActive(t)
}

// inflate converts the thin lock the calling thread owns into a fat lock
// holding `locks` nested locks. The header store may be plain: the
// inflating thread owns the thin lock, and the discipline guarantees
// exclusive write access to the lock word.
func (l *ThinLocks) inflate(t *threading.Thread, o *object.Object, locks uint32) *monitor.Monitor {
	m := l.table.Allocate()
	if m.RecycledIndex() {
		lockevent.Count(t, lockevent.CtrMonitorRecycles)
	}
	m.SeedOwner(t, locks)
	o.SetHeader(InflatedWord(m.Index(), o.Header()))
	if l.queued {
		// Contenders parked before the inflation would otherwise wait
		// for a thin release that will never come; wake them so they
		// re-read the header and queue on the fat lock.
		l.maybeWakeQueued(o)
	}
	return m
}

// Unlock releases one level of o's monitor (§2.3.2). On the plain
// path the common case runs in this frame: a load, a compare, and a
// release store, which is one MOV on amd64 (arch.StoreRelease).
func (l *ThinLocks) Unlock(t *threading.Thread, o *object.Object) error {
	var err error
	if l.plain {
		if !releasePlain(o.HeaderAddr(), t.Shifted()) {
			err = l.unlockSlow(t, o, false, false)
		}
	} else {
		err = l.unlockDispatch(t, o)
	}
	if err == nil && lockevent.Wants(lockevent.KindRelease) && l.variant != VariantNOP {
		lockevent.Emit(lockevent.KindRelease, t, o)
	}
	return err
}

func (l *ThinLocks) unlockDispatch(t *threading.Thread, o *object.Object) error {
	switch l.variant {
	case VariantStandard:
		switch l.cpu {
		case arch.PowerPCMP, arch.POWER:
			return l.unlockStore(t, o, l.cpu)
		default:
			return l.unlockStore(t, o, arch.PowerPCUP)
		}
	case VariantInline:
		return l.unlockStore(t, o, arch.PowerPCUP)
	case VariantKernelCAS:
		return l.unlockStore(t, o, arch.POWER)
	case VariantFnCall:
		return unlockFn(l, t, o)
	case VariantMPSync:
		return l.unlockStore(t, o, arch.PowerPCMP)
	case VariantUnlockCAS:
		return l.unlockCAS(t, o)
	case VariantNOP:
		return nil
	default:
		return l.unlockStore(t, o, arch.PowerPCUP)
	}
}

// unlockStore is the paper's unlock: a load, a compare, and a plain
// store. No atomic operation is needed because lock ownership is a
// stable property — if this thread owns the lock the loaded value cannot
// be stale, and if it does not, any stale value still shows that it does
// not (§2.3.2).
func (l *ThinLocks) unlockStore(t *threading.Thread, o *object.Object, cpu arch.CPU) error {
	hp := o.HeaderAddr()
	if cpu == arch.PowerPCUP && !l.queued {
		if releasePlain(hp, t.Shifted()) {
			return nil
		}
		return l.unlockSlow(t, o, false, false)
	}
	w := atomic.LoadUint32(hp)
	fence := cpu == arch.PowerPCMP
	if w^t.Shifted() < CountUnit {
		// Thin, owned by this thread, count 0: the common case.
		// On a multiprocessor the sync barrier makes the critical
		// section's writes visible before the release (§3.5.1).
		if fence {
			arch.Sync()
		}
		// The sequentially consistent store (XCHG on amd64) stays
		// where a later load by this thread must not pass it. The
		// queued extension loads the FLC bit right after the release,
		// the owner's half of a Dekker pair with the contender's flag
		// store and header re-read (queued.go). The MP Sync and
		// KernelC&S machines model the paper's fully fenced release
		// (PowerPC sync; the POWER kernel service), so their Figure 6
		// bars keep the fence's cost.
		atomic.StoreUint32(hp, w^t.Shifted())
		if l.queued {
			l.wakeAfterUnlock(o)
		}
		return nil
	}
	return l.unlockSlow(t, o, fence, false)
}

// releasePlain is the uniprocessor final release: if the thread whose
// shifted index is owner holds the thin word at hp once, clear the
// owner with a release store (one MOV on amd64) and report true.
// Anything else is left for unlockSlow. Unlock and unlockStore inline
// it (inlining cost 78 of the compiler's 80), so keep it this small.
func releasePlain(hp *uint32, owner uint32) bool {
	if w := atomic.LoadUint32(hp) ^ owner; w < CountUnit {
		arch.StoreRelease(hp, w)
		return true
	}
	return false
}

// unlockCAS is the UnlkC&S variant: the release uses a compare-and-swap,
// paying the atomic-operation cost the discipline makes unnecessary.
func (l *ThinLocks) unlockCAS(t *threading.Thread, o *object.Object) error {
	hp := o.HeaderAddr()
	w := atomic.LoadUint32(hp)
	if w^t.Shifted() < CountUnit {
		if !atomic.CompareAndSwapUint32(hp, w, w^t.Shifted()) {
			// Unreachable: we own the lock, so no other thread may
			// write the word.
			panic("core: unlock CAS failed while owning the lock")
		}
		if l.queued {
			l.wakeAfterUnlock(o)
		}
		return nil
	}
	return l.unlockSlow(t, o, false, true)
}

// unlockFn is the out-of-line unlock routine of the FnCall variant.
//
//go:noinline
func unlockFn(l *ThinLocks, t *threading.Thread, o *object.Object) error {
	return l.unlockStore(t, o, arch.PowerPCUP)
}

// unlockSlow handles nested thin unlocks, fat unlocks, and errors. A
// final thin release never gets here: every caller's fast path takes
// it, and an owned thin word cannot change under its owner.
func (l *ThinLocks) unlockSlow(t *threading.Thread, o *object.Object, fence, useCAS bool) error {
	lockevent.Emit(lockevent.KindUnlockSlow, t, o)
	hp := o.HeaderAddr()
	w := atomic.LoadUint32(hp)
	if (w^t.Shifted())>>IndexShift == 0 {
		// Thin, owned by this thread, count ≥ 1: nested release.
		if useCAS {
			if !atomic.CompareAndSwapUint32(hp, w, w-CountUnit) {
				panic("core: unlock CAS failed while owning the lock")
			}
		} else {
			arch.StoreRelease(hp, w-CountUnit)
		}
		return nil
	}
	if IsInflated(w) {
		// No pin needed here: if this thread owns the fat lock the
		// binding is stable (only the owner can retire it), and if it
		// does not, the retire/exit below fail with the right error —
		// see pinnedFat.
		m := l.table.Get(FatIndex(w))
		if l.deflation && l.retireFat(m, t) {
			// Deflation extension: the fat lock was held exactly once
			// with empty queues; retire it and restore a thin,
			// unlocked header. Latecomers holding the stale monitor
			// index bounce off the retired monitor and re-read the
			// header.
			l.deflations.Add(1)
			lockevent.Emit(lockevent.KindDeflate, t, o)
			if fence {
				arch.Sync()
			}
			// Sequentially consistent: the grace stamp Free takes
			// below must not be ordered before this restore.
			atomic.StoreUint32(hp, w&MiscMask)
			if l.recycle {
				// Recycle the index only after the header restore: the
				// grace stamp taken inside Free must postdate the last
				// moment a reader could have found the index through
				// this object.
				l.freeIndex(t, m)
			}
			return nil
		}
		return m.Exit(t)
	}
	// Thin but owned by another thread (or unlocked).
	return ErrIllegalMonitorState
}

// retireFat retires a quiescent fat lock, honoring the seeded
// deflate-queue mutation (which skips the entry-queue emptiness check,
// stranding queued contenders — see core.Mutations).
func (l *ThinLocks) retireFat(m *monitor.Monitor, t *threading.Thread) bool {
	if l.mut.DeflateQueueIgnore {
		return m.RetireDroppingQueue(t)
	}
	return m.Retire(t)
}

// freeIndex returns a retired monitor's index to the table's recycler,
// honoring the seeded deflate-epoch mutation (which skips the grace
// period, recreating the stale-index reuse race the epoch scheme
// prevents).
func (l *ThinLocks) freeIndex(t *threading.Thread, m *monitor.Monitor) {
	if l.mut.DeflateEpochSkip {
		l.table.FreeSkippingGrace(m)
	} else {
		l.table.Free(m)
	}
	lockevent.Count(t, lockevent.CtrMonitorFrees)
}

// Wait implements lockapi.Locker. Waiting requires queues, so a
// thin-locked object is first inflated at its current nesting depth.
func (l *ThinLocks) Wait(t *threading.Thread, o *object.Object, d time.Duration) (bool, error) {
	lockevent.Emit(lockevent.KindWaitBegin, t, o)
	ok, err := l.waitBody(t, o, d)
	lockevent.Emit(lockevent.KindWaitEnd, t, o)
	return ok, err
}

func (l *ThinLocks) waitBody(t *threading.Thread, o *object.Object, d time.Duration) (bool, error) {
	w := o.Header()
	if IsInflated(w) {
		return l.table.Get(FatIndex(w)).Wait(t, d)
	}
	if w&TIDMask == t.Shifted() {
		l.inflWait.Add(1)
		lockevent.Inflate(t, o, lockevent.CauseWait)
		m := l.inflate(t, o, ThinCount(w)+1)
		return m.Wait(t, d)
	}
	return false, ErrIllegalMonitorState
}

// Notify implements lockapi.Locker. A thin-locked object can have no
// waiters (waiting inflates), so notify on an owned thin lock is a no-op.
func (l *ThinLocks) Notify(t *threading.Thread, o *object.Object) error {
	w := o.Header()
	if IsInflated(w) {
		return l.table.Get(FatIndex(w)).Notify(t)
	}
	if w&TIDMask == t.Shifted() {
		return nil
	}
	return ErrIllegalMonitorState
}

// NotifyAll implements lockapi.Locker.
func (l *ThinLocks) NotifyAll(t *threading.Thread, o *object.Object) error {
	w := o.Header()
	if IsInflated(w) {
		return l.table.Get(FatIndex(w)).NotifyAll(t)
	}
	if w&TIDMask == t.Shifted() {
		return nil
	}
	return ErrIllegalMonitorState
}

// Inflated reports whether o's lock is currently in the fat state.
func (l *ThinLocks) Inflated(o *object.Object) bool { return IsInflated(o.Header()) }

// HolderIndex returns the thread index currently holding o's lock, or 0
// if unlocked. For an inflated lock it consults the monitor.
func (l *ThinLocks) HolderIndex(o *object.Object) uint16 {
	w := o.Header()
	if !IsInflated(w) {
		return ThinOwner(w)
	}
	owner := l.table.Get(FatIndex(w)).Owner()
	if owner == nil {
		return 0
	}
	return owner.Index()
}

// Monitor returns the fat lock of an inflated object, or nil if the
// object's lock is thin. Intended for tests and diagnostics.
func (l *ThinLocks) Monitor(o *object.Object) *monitor.Monitor {
	w := o.Header()
	if !IsInflated(w) {
		return nil
	}
	return l.table.Get(FatIndex(w))
}
