// Bias slots: the per-thread half of lock reservation (internal/biased).
//
// A biased lock's recursion depth is deliberately NOT kept in the shared
// lock word — that is what makes the owner's reacquire/release free of
// read-modify-write atomics. Instead each Thread carries a small table
// of bias slots; a slot records one object the thread has reserved, the
// exact biased header word it installed, and the current recursion
// depth. The owning goroutine is the only writer of a slot; a revoking
// thread reads it (after winning the revocation sentinel CAS on the
// object header) to learn the depth at which the bias must be walked to
// a conventional thin or fat lock.
//
// The owner's depth store followed by its header load, against the
// revoker's sentinel CAS followed by its depth read, is a Dekker-style
// handshake: at least one side must observe the other. A plain release
// store does not keep the owner's later load from passing it, so one
// side needs a full fence. When arch.AsymmetricFences is set the depth
// store is arch.StoreRelease64 (a plain MOV) and the revoker pays the
// fence for both sides with arch.ProcessBarrier between its CAS and its
// depth read; otherwise the depth store is a sequentially consistent
// atomic store and the owner pays it.

package threading

import (
	"sync/atomic"

	"thinlock/internal/arch"
)

// BiasSlots is the number of objects one thread can have reserved at a
// time. When the table is full further objects simply aren't biased
// (the locker falls back to its ordinary CAS path), so the size is a
// quality knob, not a correctness bound.
const BiasSlots = 8

// BiasSlot is one reservation held by a thread. Only the owning
// goroutine writes it; revokers read it through the atomics.
type BiasSlot struct {
	// depth is the current recursion depth (locks held), accessed only
	// through atomic loads, StoreRelease64 and atomic stores. It comes
	// first so the 8-byte alignment id gives the struct keeps it
	// aligned for 64-bit atomics on 32-bit platforms.
	depth uint64
	id    atomic.Uint64 // object allocation id; 0 = slot free
	word  atomic.Uint32 // biased header word this thread installed
}

// ObjectID returns the id of the reserved object (0 for a free slot).
func (s *BiasSlot) ObjectID() uint64 { return s.id.Load() }

// Word returns the biased header word the owner installed.
func (s *BiasSlot) Word() uint32 { return s.word.Load() }

// SetWord records the biased header word about to be installed. Owner
// only.
func (s *BiasSlot) SetWord(w uint32) { s.word.Store(w) }

// Depth returns the recursion depth published in the slot.
func (s *BiasSlot) Depth() uint64 { return atomic.LoadUint64(&s.depth) }

// SetDepth publishes a new recursion depth. Owner only. The store is
// the owner's half of the revocation handshake: a release store when
// the revoker fences for both sides (arch.AsymmetricFences), else a
// sequentially consistent one.
func (s *BiasSlot) SetDepth(d uint64) {
	if arch.AsymmetricFences {
		arch.StoreRelease64(&s.depth, d)
		return
	}
	atomic.StoreUint64(&s.depth, d)
}

// Release frees the slot. Owner only. The depth and word are cleared
// before the id so a concurrent scanner never pairs a recycled id with
// stale state.
func (s *BiasSlot) Release() {
	atomic.StoreUint64(&s.depth, 0)
	s.word.Store(0)
	s.id.Store(0)
}

// BiasSlotFor returns the slot this thread holds for the object with
// the given allocation id, or nil. Safe to call from any goroutine
// (revokers scan the owner's table); the result is meaningful to a
// revoker only while it holds the object's revocation sentinel.
func (t *Thread) BiasSlotFor(id uint64) *BiasSlot {
	if id == 0 {
		return nil
	}
	for i := range t.biasSlots {
		if t.biasSlots[i].id.Load() == id {
			return &t.biasSlots[i]
		}
	}
	return nil
}

// ClaimBiasSlot reserves a slot for the object with the given id and
// returns it, or nil when the table is full. Owner only. A slot already
// holding the same id is reused — the table must never hold two slots
// for one object, or BiasSlotFor becomes ambiguous (possible when a
// transferred-away reservation left a stale slot behind and the object
// is re-reserved). The caller must SetWord/SetDepth before publishing
// the biased header word, and Release the slot when the reservation
// dies.
func (t *Thread) ClaimBiasSlot(id uint64) *BiasSlot {
	var free *BiasSlot
	for i := range t.biasSlots {
		s := &t.biasSlots[i]
		switch s.id.Load() {
		case id:
			return s
		case 0:
			if free == nil {
				free = s
			}
		}
	}
	if free != nil {
		free.id.Store(id)
	}
	return free
}
