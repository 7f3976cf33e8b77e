package lockdep

import (
	"fmt"

	"thinlock/internal/lockevent"
)

// The live wait-for graph. Unlike the order graph (ever-observed
// facts), the wait-for state is instantaneous: an edge exists while
// thread W is blocked acquiring object O and thread H's held stack
// contains O. A cycle in *this* graph is not a potential deadlock — it
// is one, and the detector names every participant: the thread, what
// it blocks on, where, for how long, and everything it holds.
//
// The hooks record wait states optimistically (a slow path marks
// Blocked before it knows whether it will actually park), so a
// snapshot can contain edges that resolve microseconds later. The
// detector therefore revalidates each cycle against the live state
// (same blocking episode, by sequence number) before reporting it;
// callers that want certainty (the watchdog) additionally only fire
// after a threshold of real elapsed time.

// HeldLock describes one lock a thread holds, for reports.
type HeldLock struct {
	Object string `json:"object"`
	ID     uint64 `json:"id"`
	Depth  uint32 `json:"depth"`
	Site   string `json:"site"`
}

// WaitNode is one blocked thread in the wait-for graph.
type WaitNode struct {
	Thread      string     `json:"thread"`
	ThreadIndex uint16     `json:"thread_index"`
	Kind        string     `json:"kind"`
	BlockedOn   string     `json:"blocked_on"`
	BlockedOnID uint64     `json:"blocked_on_id"`
	BlockedSite string     `json:"blocked_site"`
	WaitNs      int64      `json:"wait_ns"`
	Holder      string     `json:"holder,omitempty"` // thread holding BlockedOn, if known
	Holds       []HeldLock `json:"holds,omitempty"`
}

// WaitCycle is one deadlock: a closed loop of threads each blocked on
// an object the next one holds.
type WaitCycle struct {
	Threads []WaitNode `json:"threads"`
}

// String renders the cycle one thread per line.
func (c WaitCycle) String() string {
	s := fmt.Sprintf("wait-for cycle (%d threads deadlocked):", len(c.Threads))
	for _, n := range c.Threads {
		s += fmt.Sprintf("\n  %s blocked on %s (%s at %s, %v)", n.Thread, n.BlockedOn,
			n.Kind, n.BlockedSite, time_ns(n.WaitNs))
		for _, h := range n.Holds {
			s += fmt.Sprintf("\n    holds %s (depth %d, acquired at %s)", h.Object, h.Depth, h.Site)
		}
	}
	return s
}

func time_ns(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	default:
		return fmt.Sprintf("%dus", ns/1e3)
	}
}

// waitEdge is the internal snapshot of one blocked thread.
type waitEdge struct {
	slot   int // index into d.slots
	seq    uint64
	objID  uint64
	holder int // slot index of the holder, -1 if none found
	node   WaitNode
}

// snapshotWaiters collects every thread currently marked blocked,
// resolving the holder of each blocked-on object by scanning the held
// stacks. On-demand cost only (reports, watchdog scans).
func (d *Lockdep) snapshotWaiters() []waitEdge {
	now := lockevent.Now()
	var out []waitEdge
	for i := range d.slots {
		s := &d.slots[i]
		o := s.waitObj.Load()
		if o == nil {
			continue
		}
		kind := WaitKind(s.waitKind.Load())
		e := waitEdge{
			slot:   i,
			seq:    s.waitSeq.Load(),
			objID:  o.ID(),
			holder: -1,
		}
		e.node = WaitNode{
			Kind:        kind.String(),
			BlockedOn:   o.String(),
			BlockedOnID: o.ID(),
			BlockedSite: d.SiteLabel(s.waitSite.Load()),
			WaitNs:      now - s.waitStart.Load(),
		}
		if t := s.thr.Load(); t != nil {
			e.node.Thread = threadName(t)
			e.node.ThreadIndex = t.Index()
		} else {
			e.node.Thread = fmt.Sprintf("slot#%d", i)
		}
		e.node.Holds = d.heldOf(i)
		if h := d.holderOf(o.ID(), i); h >= 0 {
			e.holder = h
			if t := d.slots[h].thr.Load(); t != nil {
				e.node.Holder = threadName(t)
			}
		}
		out = append(out, e)
	}
	return out
}

// heldOf lists slot i's held locks.
func (d *Lockdep) heldOf(i int) []HeldLock {
	s := &d.slots[i]
	n := s.heldCount()
	var out []HeldLock
	for j := uint32(0); j < n; j++ {
		o := s.held[j].obj.Load()
		if o == nil {
			continue
		}
		out = append(out, HeldLock{
			Object: o.String(),
			ID:     o.ID(),
			Depth:  s.held[j].n.Load(),
			Site:   d.SiteLabel(s.held[j].site.Load()),
		})
	}
	return out
}

// holderOf scans all held stacks for objID, skipping the waiter's own
// slot (a thread nested-blocking on a lock it owns is not a wait-for
// edge). Returns the holder's slot index or -1.
func (d *Lockdep) holderOf(objID uint64, skip int) int {
	for i := range d.slots {
		if i == skip {
			continue
		}
		s := &d.slots[i]
		n := s.heldCount()
		for j := uint32(0); j < n; j++ {
			if s.held[j].id.Load() == objID {
				return i
			}
		}
	}
	return -1
}

// WaitingThreads returns the current wait-for edges (every blocked
// thread, with its holder where one is known).
func (d *Lockdep) WaitingThreads() []WaitNode {
	edges := d.snapshotWaiters()
	out := make([]WaitNode, 0, len(edges))
	for _, e := range edges {
		out = append(out, e.node)
	}
	return out
}

// DetectWaitCycles runs the on-demand deadlock detector: it snapshots
// the wait-for graph, finds the cycles, revalidates every participant
// against the live state (same object, same blocking episode) and
// returns the confirmed cycles.
func (d *Lockdep) DetectWaitCycles() []WaitCycle {
	edges := d.snapshotWaiters()
	bySlot := make(map[int]*waitEdge, len(edges))
	for i := range edges {
		bySlot[edges[i].slot] = &edges[i]
	}
	var cycles []WaitCycle
	state := make(map[int]int, len(edges)) // 0 unvisited, 1 on stack, 2 done
	for i := range edges {
		if state[edges[i].slot] != 0 {
			continue
		}
		// Walk waiter→holder until we fall off the graph or loop.
		var stack []*waitEdge
		cur := &edges[i]
		for cur != nil && state[cur.slot] == 0 {
			state[cur.slot] = 1
			stack = append(stack, cur)
			if cur.holder < 0 {
				break
			}
			cur = bySlot[cur.holder]
		}
		if cur != nil && state[cur.slot] == 1 {
			// Found a loop: the cycle is the stack suffix from cur.
			start := 0
			for j, e := range stack {
				if e == cur {
					start = j
					break
				}
			}
			cyc := stack[start:]
			if d.revalidate(cyc) {
				var wc WaitCycle
				for _, e := range cyc {
					wc.Threads = append(wc.Threads, e.node)
				}
				cycles = append(cycles, wc)
			}
		}
		for _, e := range stack {
			state[e.slot] = 2
		}
	}
	return cycles
}

// revalidate confirms every member of a candidate cycle is still in
// the same blocking episode on the same object, filtering out cycles
// assembled from already-resolved optimistic wait marks.
func (d *Lockdep) revalidate(cyc []*waitEdge) bool {
	if len(cyc) < 2 {
		return false
	}
	for _, e := range cyc {
		s := &d.slots[e.slot]
		o := s.waitObj.Load()
		if o == nil || o.ID() != e.objID || s.waitSeq.Load() != e.seq {
			return false
		}
	}
	return true
}
