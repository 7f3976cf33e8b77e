// Package lockprof is a sampled, site-attributed lock contention
// profiler, a sink of the internal/lockevent pipeline beside
// internal/telemetry.
//
// Where telemetry answers "how much" (global counters and histograms),
// lockprof answers "where" and "which": every sampled slow-path
// acquisition is attributed to a *lock site* — the VM method and
// bytecode pc for interpreter-driven acquisitions (published in the
// acting thread by internal/vm), or the Go caller PC chain captured
// with runtime.Callers for direct library users — and to the lock
// *object* itself. The paper's central distributional claim (a few hot
// objects and sites dominate lock behaviour, Figures 4/5) becomes
// directly observable: per-site and per-object slow-path entries, CAS
// failures, inflations by cause, park time, acquisition delay and hold
// time, with top-N reports and pprof/Prometheus/JSON exports.
//
// The overhead contract matches telemetry's:
//
//   - the uncontended lock/unlock fast path raises no event lockprof
//     consumes; with the profiler disabled every event site costs what
//     lockevent's contract says (one load, a not-taken branch, no
//     allocation; enforced by overhead_test.go);
//   - the events it consumes come only from slow paths. Stack capture —
//     the expensive part — happens only on sampled slow-path entries,
//     rate-limited by a per-thread counter (Config.SampleEvery);
//   - all bookkeeping is lock-free: records live in bounded
//     lockevent.Tables, so the profiler never blocks behind another
//     thread's bookkeeping, and its memory is bounded no matter how many
//     sites or objects appear.
package lockprof

import (
	"sync/atomic"

	"thinlock/internal/lockevent"
	"thinlock/internal/object"
	"thinlock/internal/telemetry"
	"thinlock/internal/threading"
)

// DefaultSampleEvery is the default sampling interval: one in N
// slow-path entries per thread captures a site. Slow-path entries
// include cheap nested acquisitions, so capturing every one would let
// runtime.Callers dominate nesting-heavy workloads; 1-in-8 keeps the
// capture off the common case while a contended run still lands
// hundreds of samples per second.
const DefaultSampleEvery = 8

// Config configures a Profiler.
type Config struct {
	// SampleEvery samples one in N slow-path entries per thread
	// (1 samples every entry; 0 means DefaultSampleEvery).
	SampleEvery int
}

// numSlots is the size of the per-thread attribution slot array,
// indexed by the thread's ProcIndex. Those are dense from 1 across every
// live thread of the process, so any realistic run maps threads to
// distinct slots; past numSlots concurrent threads, slots alias and
// attribution may mix between the aliased threads (all slot fields are
// atomics, so aliasing is benign for memory safety).
const numSlots = 4096

// threadSlot carries one thread's in-flight attribution state: the
// sampled site/object of the slow-path acquisition currently executing,
// and the most recent sampled acquisition still held (for hold-time
// measurement on the next slow-path unlock).
type threadSlot struct {
	tick atomic.Uint32 // sampling counter

	site atomic.Pointer[SiteRecord]   // in-flight sampled site
	obj  atomic.Pointer[ObjectRecord] // in-flight sampled object

	heldID   atomic.Uint64 // object id of the held sampled acquisition
	heldSite atomic.Pointer[SiteRecord]
	heldObj  atomic.Pointer[ObjectRecord]
	acqNs    atomic.Int64 // when the held acquisition completed

	_ [40]byte // pad to 128 bytes so neighbouring threads do not share lines
}

// Profiler is one set of contention-profile tables. Create with New,
// install in the event pipeline with Enable; all methods are safe for
// concurrent use.
type Profiler struct {
	sampleEvery uint32
	startNs     int64 // lockevent.Now at creation, for profile duration

	sites *lockevent.Table[lockevent.SiteKey, SiteRecord]
	objs  *lockevent.Table[objKey, ObjectRecord]
	slots [numSlots]threadSlot
}

// objKey identifies a lock object; its class is the one observed first.
type objKey struct {
	id    uint64
	class string
}

// Table capacities: distinct sites and objects the profiler tracks
// before it starts dropping events.
const (
	maxSites   = 4096
	maxObjects = 8192
)

// New returns an empty Profiler with the given configuration.
func New(cfg Config) *Profiler {
	se := cfg.SampleEvery
	if se <= 0 {
		se = DefaultSampleEvery
	}
	return &Profiler{
		sampleEvery: uint32(se),
		startNs:     lockevent.Now(),
		sites:       lockevent.NewTable[lockevent.SiteKey, SiteRecord](maxSites),
		objs:        lockevent.NewTable[objKey, ObjectRecord](maxObjects),
	}
}

// SampleEvery returns the configured sampling interval.
func (p *Profiler) SampleEvery() int { return int(p.sampleEvery) }

// slot returns the acting thread's attribution slot (slot 0 for nil).
func (p *Profiler) slot(t *threading.Thread) *threadSlot {
	return &p.slots[int(t.ProcIndex())&(numSlots-1)]
}

// Kinds implements lockevent.Sink.
func (p *Profiler) Kinds() lockevent.Mask {
	return lockevent.Of(lockevent.KindSlowEnter, lockevent.KindSlowExit,
		lockevent.KindUnlockSlow, lockevent.KindCASFail, lockevent.KindPark,
		lockevent.KindInflate, lockevent.KindDeflate, lockevent.KindRevoke)
}

// Event implements lockevent.Sink.
func (p *Profiler) Event(e lockevent.Event) {
	switch e.Kind {
	case lockevent.KindSlowEnter:
		p.slowPathEnter(e.T, e.O)
	case lockevent.KindSlowExit:
		p.slowPathExit(e.T, e.O, e.N)
	case lockevent.KindUnlockSlow:
		p.unlockSlow(e.T, e.O)
	case lockevent.KindCASFail:
		if site := p.slot(e.T).site.Load(); site != nil {
			site.CASFailures.Add(1)
		}
	case lockevent.KindPark:
		p.park(e.T, e.N)
	case lockevent.KindInflate:
		if c := lockevent.Cause(e.Arg); c < lockevent.NumCauses {
			p.siteFor(e.T).Inflations[c].Add(1)
			p.obj(e.O).Inflations.Add(1)
		}
	case lockevent.KindRevoke:
		if c := lockevent.Cause(e.Arg); c < lockevent.NumCauses {
			p.siteFor(e.T).Revocations[c].Add(1)
			p.obj(e.O).Revocations.Add(1)
		}
	case lockevent.KindDeflate:
		p.siteFor(e.T).Deflations.Add(1)
		p.obj(e.O).Deflations.Add(1)
	}
}

// slowPathEnter runs at slow-path entry, before the acquisition state
// machine. One in SampleEvery entries per thread is sampled: the site is
// captured, the site and object records are charged one slow entry,
// and the records are parked in the thread's slot so the later events
// of the acquisition (CAS failures, parks, inflation, slow-path exit)
// are attributed to them without re-capturing.
func (p *Profiler) slowPathEnter(t *threading.Thread, o *object.Object) {
	s := p.slot(t)
	if n := s.tick.Add(1); p.sampleEvery > 1 && n%p.sampleEvery != 0 {
		return
	}
	site, obj := p.site(lockevent.CaptureSite(t)), p.obj(o)
	site.SlowEntries.Add(1)
	obj.SlowEntries.Add(1)
	s.site.Store(site)
	s.obj.Store(obj)
}

// slowPathExit runs when the slow-path acquisition completes, with the
// total slow-path latency. It charges the delay to the sampled records
// and rolls the sample over into held state so the next slow-path
// unlock of o by this thread can record hold time.
func (p *Profiler) slowPathExit(t *threading.Thread, o *object.Object, delayNs int64) {
	s := p.slot(t)
	site := s.site.Load()
	obj := s.obj.Load()
	if site == nil && obj == nil {
		return
	}
	s.site.Store(nil)
	s.obj.Store(nil)
	if delayNs < 0 {
		delayNs = 0
	}
	if site != nil {
		site.DelayNs.Add(uint64(delayNs))
	}
	if obj != nil {
		obj.DelayNs.Add(uint64(delayNs))
	}
	s.heldSite.Store(site)
	s.heldObj.Store(obj)
	s.acqNs.Store(lockevent.Now())
	s.heldID.Store(o.ID())
}

// park attributes ns of parked (blocked) time to the in-flight sampled
// site and object, if any.
func (p *Profiler) park(t *threading.Thread, ns int64) {
	if ns <= 0 {
		return
	}
	s := p.slot(t)
	if site := s.site.Load(); site != nil {
		site.ParkNs.Add(uint64(ns))
	}
	if obj := s.obj.Load(); obj != nil {
		obj.ParkNs.Add(uint64(ns))
	}
}

// siteFor returns the record an unsampled protocol transition
// (inflation, revocation, deflation) is charged to: the in-flight
// sampled site, or a site captured now. Those transitions are rare and
// are the paper's key distributional events, so they are recorded on
// every occurrence. The acting thread is the one that triggered the
// transition (the inflater, the revoker or the bias owner, the
// releasing owner that found the monitor quiescent).
func (p *Profiler) siteFor(t *threading.Thread) *SiteRecord {
	if site := p.slot(t).site.Load(); site != nil {
		return site
	}
	return p.site(lockevent.CaptureSite(t))
}

// site and obj return the records for a site and an object, inserting
// them on first sight. When a table is full (it counts the drop) they
// return a scratch record nobody reads.
func (p *Profiler) site(k lockevent.SiteKey) *SiteRecord {
	if e, _ := p.sites.Get(k, k.Hash(), nil); e != nil {
		return &e.Rec
	}
	return &droppedSite
}

func (p *Profiler) obj(o *object.Object) *ObjectRecord {
	if e, _ := p.objs.Get(objKey{o.ID(), o.Class()}, lockevent.Mix64(o.ID()), nil); e != nil {
		return &e.Rec
	}
	return &droppedObject
}

var (
	droppedSite   SiteRecord
	droppedObject ObjectRecord
)

// unlockSlow runs on slow-path unlocks. If the thread's held sample
// matches o, the hold time (acquisition to this unlock) is charged to
// the sampled records and the held state cleared. Inflated locks always
// unlock through the slow path, so every sampled contended hold is
// measured; nested fat exits end the measurement at the first (not the
// final) release, which keeps the sink stateless — treat hold times as
// a lower bound under deep nesting.
func (p *Profiler) unlockSlow(t *threading.Thread, o *object.Object) {
	s := p.slot(t)
	if s.heldID.Load() != o.ID() {
		return
	}
	s.heldID.Store(0)
	ns := lockevent.Now() - s.acqNs.Load()
	if ns < 0 {
		ns = 0
	}
	if site := s.heldSite.Swap(nil); site != nil {
		site.HoldNs.Add(uint64(ns))
	}
	if obj := s.heldObj.Swap(nil); obj != nil {
		obj.HoldNs.Add(uint64(ns))
	}
	// The measured hold also feeds the global hold-time distribution, so
	// windowed hold percentiles (lockscope) exist without per-site math.
	if m := telemetry.Active(); m != nil {
		m.Observe(t, telemetry.HistHoldNs, ns)
	}
}

// Drops reports how many events the bounded tables discarded.
func (p *Profiler) Drops() (sites, objects uint64) {
	return p.sites.Drops(), p.objs.Drops()
}

// Enable installs p as the pipeline's profiler sink (nil disables) and
// returns p.
func Enable(p *Profiler) *Profiler {
	if p == nil {
		Disable()
		return nil
	}
	lockevent.Install(lockevent.SlotProfiler, p)
	return p
}

// Disable uninstalls the profiler sink.
func Disable() { lockevent.Install(lockevent.SlotProfiler, nil) }

// Active returns the installed Profiler, or nil when disabled.
func Active() *Profiler {
	p, _ := lockevent.Installed(lockevent.SlotProfiler).(*Profiler)
	return p
}
