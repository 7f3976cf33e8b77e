// Package lockdep is a runtime lock-order watchdog in the spirit of the
// Linux kernel's lockdep, a sink of the internal/lockevent pipeline
// beside internal/telemetry and internal/lockprof.
//
// Where telemetry answers "how much" and lockprof answers "where",
// lockdep answers "can this hang, and if it already has, why": it
//
//   - maintains a per-thread stack of held locks and folds every
//     observed nesting pair (held A while acquiring B) into a global
//     lock-order graph keyed by lock *object*, with call-site
//     annotations on the edges (captured by lockevent.CaptureSite, as
//     lockprof's are). The first time the inverse order of an
//     existing edge appears — from a different thread — the resulting
//     cycle is reported as a *potential* deadlock (an ABBA inversion),
//     even if no hang ever occurs;
//   - maintains a live wait-for state fed from the slow paths of the
//     lock implementations (thin-lock spinning, the queued-contention
//     park, fat-monitor entry, bias revocation, and Object.wait), with
//     an on-demand cycle detector that names the deadlocked threads,
//     the sites they hold and the site each blocks on;
//   - keeps a flight recorder: a fixed ring of recent lock events that
//     a stall watchdog (see watchdog.go) dumps together with the
//     current holders and wait-for edges when any wait exceeds a
//     threshold, so a hang is diagnosable post mortem.
//
// The overhead contract matches telemetry's and lockprof's: with
// lockdep disabled every event site costs what lockevent's contract
// says (one load, a not-taken branch, no allocation; enforced by
// overhead_test.go). Enabled, the steady state (known sites, known
// edges) is allocation-free too; only the first observation of a site
// or an order edge allocates its record.
//
// Unlike lockprof, acquisitions are not sampled: the order graph is
// only sound if every nested acquisition is folded in, so an enabled
// lockdep captures a call-site on every first (non-nested) acquisition.
// That makes it a diagnosis tool to switch on, not an always-on
// profiler — which is exactly the kernel-lockdep trade-off.
//
// The order graph is keyed by object, not by site: a single
// transfer(a, b) call site passed (x, y) by one thread and (y, x) by
// another is invisible to a site-pair graph but is precisely the ABBA
// hang lockdep exists to catch. Sites annotate the edges for reporting.
// A cycle whose edges were all contributed by one thread cannot
// deadlock (one thread cannot block on itself through intact nesting)
// and is suppressed, not reported; the suppression is re-examined when
// a second thread later contributes to any of its edges.
package lockdep

import (
	"sync/atomic"

	"thinlock/internal/lockevent"
	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// numSlots is the size of the per-thread state array, indexed by the
// thread's ProcIndex modulo numSlots as in lockprof: past numSlots
// concurrent threads, slots alias and attribution may mix (all fields
// are atomics, so aliasing is benign for memory safety).
const numSlots = 4096

// maxHeld bounds the per-thread held-lock stack. Deeper nesting than
// this is counted in a drop counter and the over-deep locks simply go
// untracked (the paper's workloads nest a handful of monitors at most).
const maxHeld = 16

// WaitKind classifies why a thread is blocked on an object.
type WaitKind = lockevent.WaitKind

// The wait kinds, named here for readers of this package.
const (
	WaitNone       = lockevent.WaitNone
	WaitSpin       = lockevent.WaitSpin
	WaitQueued     = lockevent.WaitQueued
	WaitFat        = lockevent.WaitFat
	WaitRevocation = lockevent.WaitRevocation
	WaitCond       = lockevent.WaitCond
)

// heldEntry is one held lock on a thread's stack. All fields are
// atomics because the wait-for detector and the watchdog read other
// threads' stacks while the owner mutates them; a torn read can at
// worst duplicate or miss an entry, which detection revalidates.
type heldEntry struct {
	obj  atomic.Pointer[object.Object]
	id   atomic.Uint64
	n    atomic.Uint32 // recursion depth at this entry
	site atomic.Uint32 // site id of the first acquisition
}

// threadSlot is one thread's lockdep state: held stack, wait-for state
// and the saved depth of an in-progress Object.wait.
type threadSlot struct {
	thr atomic.Pointer[threading.Thread]

	heldLen  atomic.Uint32
	held     [maxHeld]heldEntry
	overflow atomic.Uint32 // pushes dropped because the stack was full

	waitObj   atomic.Pointer[object.Object]
	waitKind  atomic.Uint32
	waitSite  atomic.Uint32
	waitStart atomic.Int64
	waitSeq   atomic.Uint64 // bumped per distinct blocking episode

	condObj   atomic.Pointer[object.Object]
	condDepth atomic.Uint32
	condSite  atomic.Uint32
}

// Config configures a Lockdep instance. The zero value is valid.
type Config struct{}

// Lockdep is one lock-order tracking state. Create with New, install
// in the event pipeline with Enable; all methods are safe for
// concurrent use.
type Lockdep struct {
	startNs int64

	sites *lockevent.Table[lockevent.SiteKey, struct{}]
	graph graph
	ring  ring
	slots [numSlots]threadSlot

	heldOverflows atomic.Uint64
}

// New returns an empty Lockdep with the given configuration.
func New(cfg Config) *Lockdep {
	_ = cfg
	return &Lockdep{
		startNs: lockevent.Now(),
		sites:   lockevent.NewTable[lockevent.SiteKey, struct{}](maxSites),
		graph:   graph{nodes: lockevent.NewTable[nodeKey, gnode](maxNodes)},
	}
}

// slot returns the acting thread's state slot (slot 0 for nil).
func (d *Lockdep) slot(t *threading.Thread) *threadSlot {
	return &d.slots[int(t.ProcIndex())&(numSlots-1)]
}

// noteThread claims the slot for t. A ProcIndex is reused only after
// its thread detached, so state another thread left in the slot (locks
// it still held when it went away) is stale and is dropped rather than
// folded into t's order edges.
func (s *threadSlot) noteThread(t *threading.Thread) {
	prev := s.thr.Load()
	if t == nil || prev == t {
		return
	}
	s.thr.Store(t)
	if prev == nil {
		return
	}
	for i := range s.held {
		s.held[i].obj.Store(nil)
		s.held[i].id.Store(0)
	}
	s.heldLen.Store(0)
	s.overflow.Store(0)
	s.clearWait(nil)
	s.condObj.Store(nil)
}

// heldCount is the number of valid held entries.
func (s *threadSlot) heldCount() uint32 { return min(s.heldLen.Load(), maxHeld) }

// find returns the index of o's held entry among the first n, or -1.
func (s *threadSlot) find(o *object.Object, n uint32) int {
	for i := uint32(0); i < n; i++ {
		if s.held[i].id.Load() == o.ID() {
			return int(i)
		}
	}
	return -1
}

// push appends a held entry for o; false (and an overflow) when the
// stack is full.
func (d *Lockdep) push(s *threadSlot, n uint32, o *object.Object, depth, site uint32) bool {
	if n >= maxHeld {
		s.overflow.Add(1)
		d.heldOverflows.Add(1)
		return false
	}
	e := &s.held[n]
	e.obj.Store(o)
	e.id.Store(o.ID())
	e.n.Store(depth)
	e.site.Store(site)
	s.heldLen.Store(n + 1)
	return true
}

// drop removes held entry i of n. Order within the stack does not
// matter once the edges are folded, so the last entry moves into i.
func (s *threadSlot) drop(i int, n uint32) {
	last := n - 1
	if uint32(i) != last {
		s.held[i].obj.Store(s.held[last].obj.Load())
		s.held[i].id.Store(s.held[last].id.Load())
		s.held[i].n.Store(s.held[last].n.Load())
		s.held[i].site.Store(s.held[last].site.Load())
	}
	s.held[last].obj.Store(nil)
	s.held[last].id.Store(0)
	s.heldLen.Store(last)
}

// setWait marks the slot blocked on o for a new episode.
func (s *threadSlot) setWait(o *object.Object, kind WaitKind, site uint32) {
	s.waitSite.Store(site)
	s.waitKind.Store(uint32(kind))
	s.waitStart.Store(lockevent.Now())
	s.waitSeq.Add(1)
	s.waitObj.Store(o)
}

// clearWait ends the slot's blocking episode on o (any episode for nil).
func (s *threadSlot) clearWait(o *object.Object) {
	if w := s.waitObj.Load(); w != nil && (o == nil || w == o) {
		s.waitObj.Store(nil)
		s.waitKind.Store(uint32(WaitNone))
	}
}

// Acquired records that t now owns o. Called by the lock
// implementations after every successful Lock. A re-acquisition of an
// already-held object only bumps its recursion count; a first
// acquisition captures the call site, pushes a held entry, folds one
// order edge per other held lock into the graph, and clears any
// wait-for state the slow path recorded on the way in.
func (d *Lockdep) Acquired(t *threading.Thread, o *object.Object) {
	s := d.slot(t)
	s.noteThread(t)
	s.clearWait(nil)
	n := s.heldCount()
	if i := s.find(o, n); i >= 0 {
		s.held[i].n.Add(1)
		return
	}
	site := d.captureSite(t)
	d.ring.record(EvAcquire, t.ProcIndex(), o, site, 0)
	if d.push(s, n, o, 1, site) {
		for i := uint32(0); i < n; i++ {
			d.graph.addEdge(d, &s.held[i], o, site, t)
		}
	}
}

// Released records that t released one level of o; the final release
// drops the held entry.
func (d *Lockdep) Released(t *threading.Thread, o *object.Object) {
	s := d.slot(t)
	n := s.heldCount()
	i := s.find(o, n)
	if i < 0 {
		// Not on the stack: either the push was dropped on overflow, or
		// lockdep was enabled after the acquisition. Burn an overflow
		// credit if one exists so the counters stay roughly honest.
		if c := s.overflow.Load(); c > 0 {
			s.overflow.Store(c - 1)
		}
		return
	}
	if c := s.held[i].n.Load(); c > 1 {
		s.held[i].n.Store(c - 1)
		return
	}
	s.drop(i, n)
	d.ring.record(EvRelease, t.ProcIndex(), o, 0, 0)
}

// Blocked records that t is about to block (or spin) on o. Called from
// the slow paths; may be called repeatedly while a spin loop retries,
// in which case the original start time is kept so stall durations are
// measured from the first report. The wait state is cleared by the
// Acquired that ends the episode (or by Unblocked on non-acquiring
// paths).
func (d *Lockdep) Blocked(t *threading.Thread, o *object.Object, kind WaitKind) {
	s := d.slot(t)
	if s.waitObj.Load() == o && WaitKind(s.waitKind.Load()) == kind {
		return
	}
	s.noteThread(t)
	site := d.captureSite(t)
	s.setWait(o, kind, site)
	d.ring.record(EvBlocked, t.ProcIndex(), o, site, uint32(kind))
}

// Unblocked clears t's wait-for state on paths that do not end in an
// acquisition (e.g. waiting out a bias revocation during an unlock).
func (d *Lockdep) Unblocked(t *threading.Thread) { d.slot(t).clearWait(nil) }

// CondWaitBegin records that t entered Object.wait on o: the held
// entry for o (at whatever recursion depth) leaves the stack — the
// monitor is released for the duration of the wait, and leaving it on
// the stack would fabricate wait-for edges pointing at a thread that
// holds nothing — and the thread is marked waiting on o.
func (d *Lockdep) CondWaitBegin(t *threading.Thread, o *object.Object) {
	s := d.slot(t)
	s.noteThread(t)
	n := s.heldCount()
	if i := s.find(o, n); i >= 0 {
		s.condObj.Store(o)
		s.condDepth.Store(s.held[i].n.Load())
		s.condSite.Store(s.held[i].site.Load())
		s.drop(i, n)
	}
	site := d.captureSite(t)
	s.setWait(o, WaitCond, site)
	d.ring.record(EvCondWait, t.ProcIndex(), o, site, uint32(WaitCond))
}

// CondWaitEnd records that t's Object.wait on o returned (notified,
// timed out, interrupted, or refused with an error): the wait state is
// cleared and, if CondWaitBegin removed a held entry, it is restored at
// its saved depth. The restore folds no new order edges — the original
// acquisition already did.
func (d *Lockdep) CondWaitEnd(t *threading.Thread, o *object.Object) {
	s := d.slot(t)
	s.clearWait(o)
	if s.condObj.Load() != o {
		return
	}
	s.condObj.Store(nil)
	if d.push(s, s.heldLen.Load(), o, s.condDepth.Load(), s.condSite.Load()) {
		d.ring.record(EvCondWake, t.ProcIndex(), o, s.condSite.Load(), 0)
	}
}

// Stats is a snapshot of lockdep's internal counters.
type Stats struct {
	// Nodes and Edges size the lock-order graph.
	Nodes, Edges int
	// Inversions counts reported lock-order inversion cycles.
	Inversions int
	// SingleThreadCycles counts order cycles observed but suppressed
	// because every edge came from one thread.
	SingleThreadCycles uint64
	// SiteDrops / NodeDrops / EdgeDrops / ReportDrops count events the
	// bounded tables discarded.
	SiteDrops, NodeDrops, EdgeDrops, ReportDrops uint64
	// HeldOverflows counts held-stack pushes dropped at maxHeld depth.
	HeldOverflows uint64
	// Events is the flight-recorder sequence number (total events ever
	// recorded; the ring keeps the most recent RingSize).
	Events uint64
}

// Stats returns a snapshot of the counters.
func (d *Lockdep) Stats() Stats {
	nodes, edges := d.graph.size()
	return Stats{
		Nodes:              nodes,
		Edges:              edges,
		Inversions:         len(d.Inversions()),
		SingleThreadCycles: d.graph.singleThread.Load(),
		SiteDrops:          d.sites.Drops(),
		NodeDrops:          d.graph.nodes.Drops(),
		EdgeDrops:          d.graph.edgeDrops.Load(),
		ReportDrops:        d.graph.reportDrops.Load(),
		HeldOverflows:      d.heldOverflows.Load(),
		Events:             d.ring.seq.Load(),
	}
}

// Kinds implements lockevent.Sink.
func (d *Lockdep) Kinds() lockevent.Mask {
	return lockevent.Of(lockevent.KindAcquire, lockevent.KindRelease,
		lockevent.KindSpin, lockevent.KindBlocked, lockevent.KindUnblocked,
		lockevent.KindWaitBegin, lockevent.KindWaitEnd)
}

// Event implements lockevent.Sink. A spin round is a blocking episode
// like any other; Blocked keeps its start time across the rounds.
func (d *Lockdep) Event(e lockevent.Event) {
	switch e.Kind {
	case lockevent.KindAcquire:
		d.Acquired(e.T, e.O)
	case lockevent.KindRelease:
		d.Released(e.T, e.O)
	case lockevent.KindSpin, lockevent.KindBlocked:
		d.Blocked(e.T, e.O, WaitKind(e.Arg))
	case lockevent.KindUnblocked:
		d.Unblocked(e.T)
	case lockevent.KindWaitBegin:
		d.CondWaitBegin(e.T, e.O)
	case lockevent.KindWaitEnd:
		d.CondWaitEnd(e.T, e.O)
	}
}

// Enable installs d as the pipeline's lockdep sink (nil disables) and
// returns d.
func Enable(d *Lockdep) *Lockdep {
	if d == nil {
		Disable()
		return nil
	}
	lockevent.Install(lockevent.SlotLockdep, d)
	return d
}

// Disable uninstalls the lockdep sink.
func Disable() { lockevent.Install(lockevent.SlotLockdep, nil) }

// Active returns the installed Lockdep, or nil when disabled.
func Active() *Lockdep {
	d, _ := lockevent.Installed(lockevent.SlotLockdep).(*Lockdep)
	return d
}

// Sites are interned into a bounded lockevent.Table and referred to
// everywhere else by their table id, so held entries, wait states,
// graph edges and ring events can store a site in one atomic word.
// Capture, hashing and labels are lockevent's.

// maxSites bounds the number of distinct sites; past it, captures
// resolve to site id 0 ("site table full") and a drop is counted.
const maxSites = 2048

// captureSite resolves the acting thread's current lock site to its
// id. Allocation-free for known sites.
func (d *Lockdep) captureSite(t *threading.Thread) uint32 {
	k := lockevent.CaptureSite(t)
	_, id := d.sites.Get(k, k.Hash(), nil)
	return id
}

// SiteLabel returns the display label for a site id ("?" for 0).
func (d *Lockdep) SiteLabel(id uint32) string {
	if e := d.sites.ByID(id); e != nil {
		return e.Key.Label()
	}
	return "?"
}
