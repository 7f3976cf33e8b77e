package lockevent

// Counter enumerates the runtime counters internal/telemetry keeps. The
// order defines the layout of a telemetry shard and of its Snapshot
// arrays; names are given by Name. Most counters are fed by an event
// kind (inflations by KindInflate, spins by KindSpin, ...); the
// implementation counters with no event of their own are ticked with
// KindCount.
type Counter uint8

const (
	// CtrSlowPathEntries counts acquisitions that left the inlined fast path.
	CtrSlowPathEntries Counter = iota
	// CtrCASFailures counts lock-word CASes that lost a race.
	CtrCASFailures
	// CtrInflationsContention counts inflations caused by contention.
	CtrInflationsContention
	// CtrInflationsOverflow counts inflations caused by nested-count overflow.
	CtrInflationsOverflow
	// CtrInflationsWait counts inflations caused by a wait.
	CtrInflationsWait
	// CtrDeflations counts fat locks turned back into thin locks.
	CtrDeflations
	// CtrSpinRounds counts back-off pauses while spinning.
	CtrSpinRounds
	// CtrQueuedParks counts contenders parked on a flat-lock-contention queue.
	CtrQueuedParks
	// CtrFLCWakeups counts owner-side contention-queue wakeups.
	CtrFLCWakeups
	// CtrMonitorContendedEntries counts monitor entries that queued.
	CtrMonitorContendedEntries
	// CtrMonitorHandoffs counts direct handoffs to the queue head.
	CtrMonitorHandoffs
	// CtrMonitorRetirements counts monitors retired by the deflation extension.
	CtrMonitorRetirements
	// CtrWaits counts monitor Wait calls.
	CtrWaits
	// CtrWaitTimerWakeups counts waits woken by their timer.
	CtrWaitTimerWakeups
	// CtrNotifies counts Notify and NotifyAll calls.
	CtrNotifies
	// CtrVMMonitorEnter counts monitorenter opcodes executed by the interpreter.
	CtrVMMonitorEnter
	// CtrVMMonitorExit counts monitorexit opcodes executed by the interpreter.
	CtrVMMonitorExit
	// CtrCacheLookups counts JDK111 monitor-cache consultations.
	CtrCacheLookups
	// CtrCacheMisses counts JDK111 lookups that had to bind a monitor.
	CtrCacheMisses
	// CtrCacheSweeps counts JDK111 free-list refill sweeps.
	CtrCacheSweeps
	// CtrHotOps counts IBM112 operations served through a hot slot.
	CtrHotOps
	// CtrColdOps counts IBM112 operations that went through the cold cache.
	CtrColdOps
	// CtrHotPromotions counts IBM112 objects promoted to hot slots.
	CtrHotPromotions
	// CtrColdSweeps counts IBM112 cold-cache cleanup scans.
	CtrColdSweeps
	// CtrBiasInstalls counts bias reservations installed on unlocked objects.
	CtrBiasInstalls
	// CtrBiasedAcquires counts acquisitions served by the biased owner fast path.
	CtrBiasedAcquires
	// CtrBiasTransfers counts stale reservations handed on unrevoked.
	CtrBiasTransfers
	// CtrBiasRevocationsContention counts revocations forced by contention.
	CtrBiasRevocationsContention
	// CtrBiasRevocationsWait counts owner self-revocations forced by Wait.
	CtrBiasRevocationsWait
	// CtrBiasRevocationsOverflow counts self-revocations at the depth limit.
	CtrBiasRevocationsOverflow
	// CtrBulkRebiases counts class-epoch bumps (bulk rebias heuristic).
	CtrBulkRebiases
	// CtrBulkRevokes counts classes declared unbiasable (bulk revoke).
	CtrBulkRevokes
	// CtrMonitorFrees counts monitor indices freed by deflation.
	CtrMonitorFrees
	// CtrMonitorRecycles counts inflations served with a recycled monitor index.
	CtrMonitorRecycles

	// NumCounters is the number of defined counters.
	NumCounters
)

// counterNames are the stable metric names (snake_case, used as JSON
// keys and, prefixed, as Prometheus metric names).
var counterNames = [NumCounters]string{
	CtrSlowPathEntries:         "slow_path_entries",
	CtrCASFailures:             "cas_failures",
	CtrInflationsContention:    "inflations_contention",
	CtrInflationsOverflow:      "inflations_overflow",
	CtrInflationsWait:          "inflations_wait",
	CtrDeflations:              "deflations",
	CtrSpinRounds:              "spin_rounds",
	CtrQueuedParks:             "queued_parks",
	CtrFLCWakeups:              "flc_wakeups",
	CtrMonitorContendedEntries: "monitor_contended_entries",
	CtrMonitorHandoffs:         "monitor_handoffs",
	CtrMonitorRetirements:      "monitor_retirements",
	CtrWaits:                   "waits",
	CtrWaitTimerWakeups:        "wait_timer_wakeups",
	CtrNotifies:                "notifies",
	CtrVMMonitorEnter:          "vm_monitorenter_ops",
	CtrVMMonitorExit:           "vm_monitorexit_ops",
	CtrCacheLookups:            "cache_lookups",
	CtrCacheMisses:             "cache_misses",
	CtrCacheSweeps:             "cache_sweeps",
	CtrHotOps:                  "hot_ops",
	CtrColdOps:                 "cold_ops",
	CtrHotPromotions:           "hot_promotions",
	CtrColdSweeps:              "cold_sweeps",
	CtrBiasInstalls:            "bias_installs",
	CtrBiasedAcquires:          "biased_acquires",
	CtrBiasTransfers:           "bias_transfers",

	CtrBiasRevocationsContention: "bias_revocations_contention",
	CtrBiasRevocationsWait:       "bias_revocations_wait",
	CtrBiasRevocationsOverflow:   "bias_revocations_overflow",
	CtrBulkRebiases:              "bulk_rebiases",
	CtrBulkRevokes:               "bulk_revokes",
	CtrMonitorFrees:              "monitor_frees",
	CtrMonitorRecycles:           "monitor_recycles",
}

// Name returns the counter's stable metric name.
func (c Counter) Name() string {
	if c >= NumCounters {
		return "unknown"
	}
	return counterNames[c]
}
