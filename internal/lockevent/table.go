package lockevent

import "sync/atomic"

// tableProbe is the linear probe window before an insert gives up.
const tableProbe = 64

// Table is the bounded record store every sink keeps per site or per
// object: a fixed array of atomic entry pointers, open-addressed and
// CAS-inserted, whose entries are never removed. A sink therefore never
// blocks behind another thread's bookkeeping and never grows with the
// system it watches: once a key's probe window is full, its events are
// dropped and counted.
type Table[K comparable, R any] struct {
	slots []atomic.Pointer[Entry[K, R]]
	drops atomic.Uint64
}

// Entry is one key and its record.
type Entry[K comparable, R any] struct {
	Key K
	Rec R
}

// NewTable returns an empty table of size slots, a power of two.
func NewTable[K comparable, R any](size int) *Table[K, R] {
	return &Table[K, R]{slots: make([]atomic.Pointer[Entry[K, R]], size)}
}

// Get returns the entry for k, whose hash is h, and its id: the slot
// index plus one. A new k gets a zero record, passed to init (if not
// nil) before it is published. Get returns nil and 0 when k's probe
// window is full. Only an insert allocates.
func (tb *Table[K, R]) Get(k K, h uint64, init func(K, *R)) (*Entry[K, R], uint32) {
	mask := uint64(len(tb.slots) - 1)
	for i := uint64(0); i < tableProbe; i++ {
		slot := (h + i) & mask
		e := tb.slots[slot].Load()
		if e == nil {
			ne := &Entry[K, R]{Key: k}
			if init != nil {
				init(k, &ne.Rec)
			}
			if tb.slots[slot].CompareAndSwap(nil, ne) {
				return ne, uint32(slot) + 1
			}
			e = tb.slots[slot].Load()
		}
		if e.Key == k {
			return e, uint32(slot) + 1
		}
	}
	tb.drops.Add(1)
	return nil, 0
}

// ByID returns the entry with the given id, or nil.
func (tb *Table[K, R]) ByID(id uint32) *Entry[K, R] {
	if id == 0 || int(id) > len(tb.slots) {
		return nil
	}
	return tb.slots[id-1].Load()
}

// Entries returns every entry, in slot order.
func (tb *Table[K, R]) Entries() []*Entry[K, R] {
	var out []*Entry[K, R]
	for i := range tb.slots {
		if e := tb.slots[i].Load(); e != nil {
			out = append(out, e)
		}
	}
	return out
}

// Drops reports how many events found their probe window full.
func (tb *Table[K, R]) Drops() uint64 { return tb.drops.Load() }

// Mix64 scrambles an integer key (a SplitMix64 finalizer round) into a
// table hash.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
