package biased

import (
	"sync/atomic"

	"thinlock/internal/arch"
	"thinlock/internal/core"
	"thinlock/internal/lockevent"
	"thinlock/internal/monitor"
	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// revoke tears down the reservation w (biased, not to t) on o. The
// caller re-reads the header afterwards. It reports true when the
// revocation ended with the bias transferred to t — the lock is then
// acquired at depth 1.
//
// The protocol: CAS the biased word to the revocation sentinel (owner
// index 0), which no fast path validates against, making this thread
// the word's only writer. Find the reserving thread through the
// registry and read the recursion depth it last published in its bias
// slot; that single read is the revocation's linearization point — the
// owner's Dekker discipline (publish depth, then validate the header)
// guarantees any operation the read misses will reconcile against the
// word we publish. The owner's depth store may be a release store that
// its own header load passes, so the revoker issues
// arch.ProcessBarrier between the CAS and the depth read: it fences
// the owner's CPU on the revoker's behalf. Where the kernel offers no
// such barrier the owner's store is sequentially consistent and the
// call is a no-op. Then rewrite the header: the owner's exact depth as
// a conventional thin word, or — when unheld — unlocked, or
// transferred to us if the reservation's epoch was stale. Finally wake
// the owner in case it is stalled mid-reconciliation.
func (l *Locker) revoke(t *threading.Thread, o *object.Object, w uint32) bool {
	misc := w & core.MiscMask
	if !o.CASHeader(w, core.BiasRevokingWord(misc)) {
		return false // lost the race to another revoker or state change
	}
	// Asymmetric Dekker: after this barrier the owner either had its
	// depth store globally visible, or has yet to load the header and
	// will see the sentinel.
	arch.ProcessBarrier()

	ownerIdx := core.BiasOwner(w)
	var ownerT *threading.Thread
	if reg := t.Registry(); reg != nil {
		ownerT = reg.Lookup(ownerIdx)
	}
	var depth uint64
	if ownerT != nil {
		if s := ownerT.BiasSlotFor(o.ID()); s != nil && s.Word() == w {
			depth = s.Depth() // linearization point
		}
		// A missing or mismatched slot means the reservation is a stale
		// image (the index was recycled, or the thread moved on): no
		// lock is held through it, so depth 0 is exact.
	}

	cls := l.classFor(o.Class())
	if depth == 0 && l.canTransfer(cls, o, w) {
		if s := t.ClaimBiasSlot(o.ID()); s != nil {
			nw := core.BiasedWord(t.Index(), cls.epoch.Load(), l.epochBits, misc)
			s.SetWord(nw)
			s.SetDepth(1)
			o.SetHeader(nw)
			if ownerT != nil {
				ownerT.Parker().Unpark()
			}
			lockevent.Count(t, lockevent.CtrBiasTransfers)
			return true
		}
	}

	// Full revocation: walk the reservation to a conventional word.
	var nw uint32
	switch {
	case l.mut.RevokeOffByOne:
		// Seeded bug: the walker seeds the thin count with the owner's
		// depth instead of (depth − 1) — one phantom recursion level,
		// and an unheld reservation revokes to a held lock.
		nw = core.ThinWord(ownerIdx, uint32(depth)&core.BiasMaxThinCount, misc)
	case depth > 0:
		nw = core.ThinWord(ownerIdx, uint32(depth-1), misc)
	default:
		nw = misc // unlocked
	}
	o.SetFlagBits(FlagBiasDead) // before publishing: no re-reservation
	l.bumpClassRevocation(t, cls)
	o.SetHeader(nw)
	if ownerT != nil {
		ownerT.Parker().Unpark()
	}
	lockevent.Revoke(t, o, lockevent.CauseContention)
	return false
}

// canTransfer reports whether an unheld reservation w on o may be
// handed to a new owner instead of being revoked: rebias enabled, the
// class still biasable, the object never force-revoked, and the
// reservation's epoch stale (the class epoch moved on since it was
// stamped).
func (l *Locker) canTransfer(cls *classBias, o *object.Object, w uint32) bool {
	if l.disableRebias || cls.unbiasable.Load() || o.Flags()&FlagBiasDead != 0 {
		return false
	}
	mask := uint32(1)<<l.epochBits - 1
	return core.BiasEpoch(w, l.epochBits) != cls.epoch.Load()&mask
}

// bumpClassRevocation feeds the class heuristics: every RebiasEvery
// revocations the class epoch bumps (bulk rebias — outstanding
// reservations become stale and transferable); at RevokeAt revocations
// the class is declared unbiasable (bulk revoke).
func (l *Locker) bumpClassRevocation(t *threading.Thread, cls *classBias) {
	n := cls.revocations.Add(1)
	if !l.disableRebias && n%l.rebiasEvery == 0 && n < l.revokeAt {
		cls.epoch.Add(1)
		lockevent.Count(t, lockevent.CtrBulkRebiases)
	}
	if n >= l.revokeAt && cls.unbiasable.CompareAndSwap(false, true) {
		lockevent.Count(t, lockevent.CtrBulkRevokes)
	}
}

// selfRevokeOverflow revokes the calling thread's own reservation
// (slot s, header word w) because the next acquisition would exceed
// the biased depth cap, inflating directly to a fat lock seeded one
// level deeper. Reports false if a concurrent revoker won the sentinel
// first (the caller retries against the new header).
func (l *Locker) selfRevokeOverflow(t *threading.Thread, o *object.Object, s *threading.BiasSlot, w uint32) bool {
	if !o.CASHeader(w, core.BiasRevokingWord(w&core.MiscMask)) {
		return false
	}
	d := s.Depth()
	o.SetFlagBits(FlagBiasDead)
	m := l.table.Allocate()
	m.SeedOwner(t, uint32(d)+1)
	s.Release()
	o.SetHeader(core.InflatedWord(m.Index(), w))
	l.inflOverflow.Add(1)
	lockevent.Revoke(t, o, lockevent.CauseOverflow)
	lockevent.Inflate(t, o, lockevent.CauseOverflow)
	return true
}

// waitRevoke self-revokes the calling thread's held reservation so a
// Wait can run on a fat lock, returning the seeded monitor. It returns
// nil when a concurrent revoker walked the reservation first; the
// caller then resolves through the header (which will show a thin or
// fat lock held by t at the same depth).
func (l *Locker) waitRevoke(t *threading.Thread, o *object.Object, s *threading.BiasSlot) *monitor.Monitor {
	hp := o.HeaderAddr()
	for {
		w := atomic.LoadUint32(hp)
		if w != s.Word() {
			if core.IsBiasRevoking(w) {
				l.awaitRevocation(t, o)
				continue
			}
			// Revoked under us: the header now carries our depth
			// conventionally.
			s.Release()
			return nil
		}
		if !o.CASHeader(w, core.BiasRevokingWord(w&core.MiscMask)) {
			continue
		}
		d := s.Depth()
		o.SetFlagBits(FlagBiasDead)
		m := l.table.Allocate()
		m.SeedOwner(t, uint32(d))
		s.Release()
		o.SetHeader(core.InflatedWord(m.Index(), w))
		l.inflWait.Add(1)
		lockevent.Revoke(t, o, lockevent.CauseWait)
		lockevent.Inflate(t, o, lockevent.CauseWait)
		return m
	}
}

// reconcileLock runs when the owner's biased Lock fast path published
// depth `intended` but found the reservation gone: a revoker walked the
// word, having read either the pre-operation or the post-operation
// depth. Wait out any in-flight sentinel, then compare the depth the
// published word carries against `intended`: equal means the revoker
// counted our acquisition (nothing to do); one short means it missed it
// (complete the acquisition with the owner's ordinary nested store).
// Reports false when the word shows the reservation was unheld and not
// granted to us — the caller must acquire conventionally. The slot is
// dead in every case.
func (l *Locker) reconcileLock(t *threading.Thread, o *object.Object, s *threading.BiasSlot, intended uint64) bool {
	l.awaitRevocation(t, o)
	defer s.Release()
	hp := o.HeaderAddr()
	w := atomic.LoadUint32(hp)
	shifted := t.Shifted()
	if !core.IsInflated(w) && !core.IsBiased(w) && w&core.TIDMask == shifted {
		held := uint64(core.ThinCount(w)) + 1
		if held+1 == intended {
			atomic.StoreUint32(hp, w+core.CountUnit)
		}
		return true
	}
	if core.IsInflated(w) {
		m := l.table.Get(core.FatIndex(w))
		if m.Owner() == t {
			if uint64(m.Count())+1 == intended {
				m.Enter(t)
			}
			return true
		}
	}
	// Revoked at depth 0: unlocked, transferred elsewhere, or already
	// re-acquired by another thread. Our acquisition was not counted.
	return false
}

// reconcileUnlock is the release-side mirror of reconcileLock: the
// owner published depth `intended` (one less than it held) and found
// the reservation gone. If the walked word still carries the
// pre-release depth, complete the release conventionally; otherwise the
// revoker already counted it. The release itself always succeeds — the
// thread demonstrably held the lock through its reservation.
func (l *Locker) reconcileUnlock(t *threading.Thread, o *object.Object, s *threading.BiasSlot, intended uint64) {
	l.awaitRevocation(t, o)
	defer s.Release()
	hp := o.HeaderAddr()
	w := atomic.LoadUint32(hp)
	shifted := t.Shifted()
	if !core.IsInflated(w) && !core.IsBiased(w) && w&core.TIDMask == shifted {
		held := uint64(core.ThinCount(w)) + 1
		if held == intended+1 {
			if held == 1 {
				atomic.StoreUint32(hp, w&core.MiscMask) // final release
			} else {
				atomic.StoreUint32(hp, w-core.CountUnit)
			}
		}
		return
	}
	if core.IsInflated(w) {
		m := l.table.Get(core.FatIndex(w))
		if m.Owner() == t && uint64(m.Count()) == intended+1 {
			m.Exit(t)
		}
		return
	}
	// The revoker observed the post-release depth: nothing left to do.
}
