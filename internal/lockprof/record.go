package lockprof

import (
	"sync/atomic"

	"thinlock/internal/lockevent"
)

// SiteRecord accumulates events attributed to one lock-acquisition
// site. All fields are atomics so hooks never take a lock; a record is
// published once into the site table and then only ever added to.
type SiteRecord struct {
	// SlowEntries counts sampled slow-path acquisitions at this site.
	SlowEntries atomic.Uint64
	// CASFailures counts lock-word compare-and-swap retries observed
	// while a sampled acquisition from this site was in flight.
	CASFailures atomic.Uint64
	// Inflations counts inflations triggered at this site, by cause.
	Inflations [lockevent.NumCauses]atomic.Uint64
	// Revocations counts bias revocations triggered at this site, by
	// cause (the causes mirror inflation: contention by a second thread,
	// nested overflow past the biased depth limit, or a Wait). Only the
	// biased implementation feeds these.
	Revocations [lockevent.NumCauses]atomic.Uint64
	// Deflations counts fat locks deflated back to thin at this site
	// (the site of the final unlock that found the monitor quiescent).
	// Only deflating implementations feed this; there is no cause
	// dimension — quiescence on final unlock is the only trigger.
	Deflations atomic.Uint64
	// ParkNs accumulates time sampled acquisitions from this site spent
	// parked (contention queue or monitor entry queue).
	ParkNs atomic.Uint64
	// DelayNs accumulates total slow-path latency (entry to acquisition)
	// for sampled acquisitions from this site — the "delay" dimension of
	// the exported contention profile.
	DelayNs atomic.Uint64
	// HoldNs accumulates lock hold time for sampled acquisitions,
	// measured from acquisition to the same thread's next slow-path
	// unlock of the same object. Fat (inflated) locks always release
	// through the slow path, so contended holds are covered; purely thin
	// holds release on the untouched fast path and are not.
	HoldNs atomic.Uint64
}

// InflationTotal sums the inflation counters across causes.
func (r *SiteRecord) InflationTotal() uint64 {
	var n uint64
	for c := range r.Inflations {
		n += r.Inflations[c].Load()
	}
	return n
}

// RevocationTotal sums the revocation counters across causes.
func (r *SiteRecord) RevocationTotal() uint64 {
	var n uint64
	for c := range r.Revocations {
		n += r.Revocations[c].Load()
	}
	return n
}

// ObjectRecord accumulates events attributed to one lock object — the
// per-monitor provenance view (which objects are hot, per the paper's
// Figure 4/5 locality-of-contention discussion).
type ObjectRecord struct {
	// SlowEntries counts sampled slow-path acquisitions of this object.
	SlowEntries atomic.Uint64
	// Inflations counts inflations of this object (any cause).
	Inflations atomic.Uint64
	// Revocations counts bias revocations of this object (any cause).
	Revocations atomic.Uint64
	// Deflations counts deflations of this object back to a thin lock.
	Deflations atomic.Uint64
	// ParkNs accumulates park time spent acquiring this object.
	ParkNs atomic.Uint64
	// DelayNs accumulates slow-path acquisition latency for this object.
	DelayNs atomic.Uint64
	// HoldNs accumulates sampled hold time for this object (see
	// SiteRecord.HoldNs for the measurement window).
	HoldNs atomic.Uint64
}
