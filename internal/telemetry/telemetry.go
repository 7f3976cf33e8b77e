// Package telemetry is the always-on observability layer for the lock
// implementations: per-thread-sharded, cache-line-padded atomic counters
// and log-scale latency histograms cheap enough to leave enabled during
// timed, contended runs.
//
// The paper's entire argument rests on measurement (the Table 1 sync
// counts, the Figure 3 nesting profile, the inflation and contention
// rates that justify the 24-bit encoding), but the characterization
// wrappers in internal/lockstat and internal/locktrace serialize every
// event through one mutex and are therefore restricted to untimed
// passes. This package takes the opposite contract:
//
//   - recording a counter is one atomic add into a shard selected by the
//     acting thread's index, so concurrent threads do not share cache
//     lines on the hot counters;
//   - a Telemetry is a sink of the internal/lockevent pipeline: Enable
//     installs it in the pipeline's telemetry slot, and Event maps each
//     lock event onto its counter or histogram. With telemetry disabled
//     an event site costs what lockevent's contract says (one load, a
//     not-taken branch, no allocation);
//   - events come only from slow paths (lock slow path, monitor
//     queueing, cache lookups) plus the VM's monitorenter/monitorexit
//     dispatch — the paper's 17-instruction thin-lock fast path is
//     untouched.
//
// The overhead contract is enforced by the benchmarks and allocation
// tests in overhead_test.go.
package telemetry

import (
	"math/bits"
	"sync/atomic"

	"thinlock/internal/lockevent"
	"thinlock/internal/threading"
)

// Counter enumerates the runtime counters. The vocabulary lives in
// internal/lockevent, through which the lock paths report them; the
// order defines the layout of a shard and of Snapshot arrays, and names
// are given by Name.
type Counter = lockevent.Counter

// The counters, named here for readers of this package.
const (
	CtrSlowPathEntries           = lockevent.CtrSlowPathEntries
	CtrCASFailures               = lockevent.CtrCASFailures
	CtrInflationsContention      = lockevent.CtrInflationsContention
	CtrInflationsOverflow        = lockevent.CtrInflationsOverflow
	CtrInflationsWait            = lockevent.CtrInflationsWait
	CtrDeflations                = lockevent.CtrDeflations
	CtrSpinRounds                = lockevent.CtrSpinRounds
	CtrQueuedParks               = lockevent.CtrQueuedParks
	CtrFLCWakeups                = lockevent.CtrFLCWakeups
	CtrMonitorContendedEntries   = lockevent.CtrMonitorContendedEntries
	CtrMonitorHandoffs           = lockevent.CtrMonitorHandoffs
	CtrMonitorRetirements        = lockevent.CtrMonitorRetirements
	CtrWaits                     = lockevent.CtrWaits
	CtrWaitTimerWakeups          = lockevent.CtrWaitTimerWakeups
	CtrNotifies                  = lockevent.CtrNotifies
	CtrVMMonitorEnter            = lockevent.CtrVMMonitorEnter
	CtrVMMonitorExit             = lockevent.CtrVMMonitorExit
	CtrCacheLookups              = lockevent.CtrCacheLookups
	CtrCacheMisses               = lockevent.CtrCacheMisses
	CtrCacheSweeps               = lockevent.CtrCacheSweeps
	CtrHotOps                    = lockevent.CtrHotOps
	CtrColdOps                   = lockevent.CtrColdOps
	CtrHotPromotions             = lockevent.CtrHotPromotions
	CtrColdSweeps                = lockevent.CtrColdSweeps
	CtrBiasInstalls              = lockevent.CtrBiasInstalls
	CtrBiasedAcquires            = lockevent.CtrBiasedAcquires
	CtrBiasTransfers             = lockevent.CtrBiasTransfers
	CtrBiasRevocationsContention = lockevent.CtrBiasRevocationsContention
	CtrBiasRevocationsWait       = lockevent.CtrBiasRevocationsWait
	CtrBiasRevocationsOverflow   = lockevent.CtrBiasRevocationsOverflow
	CtrBulkRebiases              = lockevent.CtrBulkRebiases
	CtrBulkRevokes               = lockevent.CtrBulkRevokes
	CtrMonitorFrees              = lockevent.CtrMonitorFrees
	CtrMonitorRecycles           = lockevent.CtrMonitorRecycles
	NumCounters                  = lockevent.NumCounters
)

// Histo enumerates the latency/depth histograms.
type Histo uint8

const (
	// HistAcquireSlowNs is the latency of thin-lock slow-path
	// acquisitions, in nanoseconds.
	HistAcquireSlowNs Histo = iota
	// HistMonitorStallNs is the time a thread spent blocked in a
	// monitor's entry queue, in nanoseconds.
	HistMonitorStallNs
	// HistBiasHandshakeNs is the time a thread stalled in the bias
	// revocation handshake: the owner reconciling against a revocation
	// of its reservation, or a contender waiting out the revocation
	// sentinel.
	HistBiasHandshakeNs
	// HistEntryQueueDepth is the entry-queue depth observed each time a
	// thread joined a monitor's entry queue.
	HistEntryQueueDepth
	// HistHoldNs is the measured lock hold time of sampled contended
	// acquisitions (acquisition to the same thread's next slow-path
	// unlock). It is fed by the lockprof hold measurement, so it only
	// populates while the contention profiler is enabled.
	HistHoldNs

	// NumHistos is the number of defined histograms.
	NumHistos
)

var histoNames = [NumHistos]string{
	HistAcquireSlowNs:   "acquire_slow_ns",
	HistMonitorStallNs:  "monitor_stall_ns",
	HistBiasHandshakeNs: "bias_handshake_ns",
	HistEntryQueueDepth: "entry_queue_depth",
	HistHoldNs:          "hold_ns",
}

// Name returns the histogram's stable metric name.
func (h Histo) Name() string {
	if h >= NumHistos {
		return "unknown"
	}
	return histoNames[h]
}

// NumBuckets is the number of log2-scale histogram buckets. Bucket b
// holds observations v with bits.Len64(v) == b, i.e. bucket 0 holds 0,
// bucket b holds [2^(b-1), 2^b-1]; the last bucket absorbs everything
// larger (~2^46 ns ≈ 20 hours, far beyond any lock stall).
const NumBuckets = 48

// BucketUpperBound returns the inclusive upper bound of bucket b
// (used as the Prometheus `le` label).
func BucketUpperBound(b int) uint64 {
	if b >= NumBuckets-1 {
		return ^uint64(0)
	}
	return 1<<uint(b) - 1
}

// bucketLowerBound returns the inclusive lower bound of bucket b (the
// interpolation anchor for Quantile).
func bucketLowerBound(b int) uint64 {
	if b <= 0 {
		return 0
	}
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	return 1 << uint(b-1)
}

// bucketOf maps an observation to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	return b
}

// shardBits selects the shard count. Thread indices are handed out
// densely from 1, so consecutive threads land in distinct shards.
const shardBits = 6

// NumShards is the number of counter shards.
const NumShards = 1 << shardBits

// shard is one thread-sharded slice of every counter and histogram.
// The trailing pad keeps the next shard's hot counters off this shard's
// last cache line.
type shard struct {
	counters [NumCounters]atomic.Uint64
	buckets  [NumHistos][NumBuckets]atomic.Uint64
	sums     [NumHistos]atomic.Uint64
	_        [64]byte
}

// Telemetry is one set of sharded counters and histograms. The zero
// value is ready to use; instances are safe for concurrent use.
type Telemetry struct {
	shards [NumShards]shard
}

// New returns an empty Telemetry.
func New() *Telemetry { return &Telemetry{} }

// shardFor selects the shard for the acting thread (shard 0 for nil,
// used by hooks that run without a thread in scope).
//
//lockvet:noalloc
func (m *Telemetry) shardFor(t *threading.Thread) *shard {
	if t == nil {
		return &m.shards[0]
	}
	return &m.shards[int(t.Index())&(NumShards-1)]
}

// Inc adds 1 to c in t's shard.
//
//lockvet:noalloc
func (m *Telemetry) Inc(t *threading.Thread, c Counter) {
	m.shardFor(t).counters[c].Add(1)
}

// Add adds n to c in t's shard.
//
//lockvet:noalloc
func (m *Telemetry) Add(t *threading.Thread, c Counter, n uint64) {
	m.shardFor(t).counters[c].Add(n)
}

// Observe records v into histogram h in t's shard. Negative values
// clamp to zero.
//
//lockvet:noalloc
func (m *Telemetry) Observe(t *threading.Thread, h Histo, v int64) {
	s := m.shardFor(t)
	s.buckets[h][bucketOf(v)].Add(1)
	if v > 0 {
		s.sums[h].Add(uint64(v))
	}
}

// Reset zeroes every counter and histogram. Concurrent updates during a
// reset land in whichever side of the sweep reaches their cell.
func (m *Telemetry) Reset() {
	for i := range m.shards {
		s := &m.shards[i]
		for c := range s.counters {
			s.counters[c].Store(0)
		}
		for h := range s.buckets {
			for b := range s.buckets[h] {
				s.buckets[h][b].Store(0)
			}
			s.sums[h].Store(0)
		}
	}
}

// Counter sums c across all shards.
func (m *Telemetry) Counter(c Counter) uint64 {
	var n uint64
	for i := range m.shards {
		n += m.shards[i].counters[c].Load()
	}
	return n
}

// inflationCounter and revocationCounter map a lockevent.Cause onto
// its counter.
var (
	inflationCounter = [lockevent.NumCauses]Counter{
		lockevent.CauseContention: CtrInflationsContention,
		lockevent.CauseOverflow:   CtrInflationsOverflow,
		lockevent.CauseWait:       CtrInflationsWait,
	}
	revocationCounter = [lockevent.NumCauses]Counter{
		lockevent.CauseContention: CtrBiasRevocationsContention,
		lockevent.CauseOverflow:   CtrBiasRevocationsOverflow,
		lockevent.CauseWait:       CtrBiasRevocationsWait,
	}
)

// Kinds implements lockevent.Sink: every kind that feeds a counter or a
// histogram.
func (m *Telemetry) Kinds() lockevent.Mask {
	return lockevent.Of(lockevent.KindSlowEnter, lockevent.KindSlowExit,
		lockevent.KindCASFail, lockevent.KindSpin, lockevent.KindUnblocked,
		lockevent.KindEnqueue, lockevent.KindPark, lockevent.KindInflate,
		lockevent.KindDeflate, lockevent.KindRevoke, lockevent.KindHandoff,
		lockevent.KindNotify, lockevent.KindCount)
}

// Event implements lockevent.Sink, recording e in its thread's shard.
//
//lockvet:noalloc
func (m *Telemetry) Event(e lockevent.Event) {
	t := e.T
	switch e.Kind {
	case lockevent.KindSlowEnter:
		m.Inc(t, CtrSlowPathEntries)
	case lockevent.KindSlowExit:
		m.Observe(t, HistAcquireSlowNs, e.N)
	case lockevent.KindCASFail:
		m.Inc(t, CtrCASFailures)
	case lockevent.KindSpin:
		m.Inc(t, CtrSpinRounds)
	case lockevent.KindUnblocked:
		// The bias revocation handshake is the one blocking episode that
		// does not end in an acquisition.
		if lockevent.WaitKind(e.Arg) == lockevent.WaitRevocation {
			m.Observe(t, HistBiasHandshakeNs, e.N)
		}
	case lockevent.KindEnqueue:
		m.Inc(t, CtrMonitorContendedEntries)
		m.Observe(t, HistEntryQueueDepth, e.N)
	case lockevent.KindPark:
		if lockevent.WaitKind(e.Arg) == lockevent.WaitQueued {
			m.Inc(t, CtrQueuedParks)
		}
		m.Observe(t, HistMonitorStallNs, e.N)
	case lockevent.KindInflate:
		m.Inc(t, inflationCounter[e.Arg])
	case lockevent.KindDeflate:
		m.Inc(t, CtrDeflations)
	case lockevent.KindRevoke:
		m.Inc(t, revocationCounter[e.Arg])
	case lockevent.KindHandoff:
		m.Inc(t, CtrMonitorHandoffs)
	case lockevent.KindNotify:
		m.Inc(t, CtrNotifies)
	case lockevent.KindCount:
		m.Inc(t, Counter(e.Arg))
	}
}

// Enable installs m as the pipeline's telemetry sink (nil disables) and
// returns m.
func Enable(m *Telemetry) *Telemetry {
	if m == nil {
		Disable()
		return nil
	}
	lockevent.Install(lockevent.SlotTelemetry, m)
	return m
}

// Disable uninstalls the telemetry sink.
func Disable() { lockevent.Install(lockevent.SlotTelemetry, nil) }

// Active returns the installed Telemetry, or nil when disabled.
func Active() *Telemetry {
	m, _ := lockevent.Installed(lockevent.SlotTelemetry).(*Telemetry)
	return m
}
