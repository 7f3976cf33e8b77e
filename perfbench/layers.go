package main

import (
	"slices"

	"thinlock/internal/telemetry"
)

// layerMetrics turns the traced epochs' counts and spans into the
// per-layer metrics. Counts are medians over traced epochs of their
// per-epoch deltas (every epoch runs the same number of requests on a
// fresh runtime); span figures pool every sampled span.
func layerMetrics(results []*epochResult, spans *spanStats) map[string]metric {
	var traced []*layerSample
	var tracedRate, plainRate []float64
	for _, r := range results {
		if r.layer != nil {
			traced = append(traced, r.layer)
			tracedRate = append(tracedRate, r.reqPerSec())
		} else {
			plainRate = append(plainRate, r.reqPerSec())
		}
	}
	per := func(f func(s *layerSample) float64) float64 {
		var xs []float64
		for _, s := range traced {
			xs = append(xs, f(s))
		}
		return median(xs)
	}
	ctr := func(name string) float64 {
		return per(func(s *layerSample) float64 { return float64(s.tel.Counter(name)) })
	}
	var merged telemetry.Snapshot
	for i, s := range traced {
		if i == 0 {
			merged = s.tel
		} else {
			merged = merged.Merge(s.tel)
		}
	}
	hist := func(name string, q float64) float64 {
		return float64(merged.Histograms[name].Quantile(q))
	}
	slices.Sort(spans.lockDur)
	jclSpans, jclSelf := spans.layerSelf("jcl")
	_, vmSelf := spans.layerSelf("vm")
	var sampled uint64
	for _, s := range traced {
		sampled += s.calls.sampledReqs
	}

	m := map[string]metric{
		"core.lock_ns":   {spans.meanDur(spLock), "ns"},
		"core.unlock_ns": {spans.meanDur(spUnlock), "ns"},
		"core.fast_path_ratio": {per(func(s *layerSample) float64 {
			// Share of first (non-nested) acquisitions that took the
			// inlined CAS: every nested lock enters the slow path by
			// design, so it is taken out of both sides.
			first := float64(s.calls.lockCalls - s.calls.nestedLocks)
			slow := float64(s.tel.Counter("slow_path_entries")) - float64(s.calls.nestedLocks)
			if first <= 0 {
				return 1
			}
			return 1 - slow/first
		}), "ratio"},
		"core.lock_p99_ns":       {float64(quantile(spans.lockDur, 0.99)), "ns"},
		"core.slow_path_entries": {ctr("slow_path_entries"), "count"},
		"core.cas_failures":      {ctr("cas_failures"), "count"},
		"core.inflations_contention": {per(func(s *layerSample) float64 {
			return float64(s.after.InflationsContention - s.before.InflationsContention)
		}), "count"},
		"core.inflations_wait": {per(func(s *layerSample) float64 {
			return float64(s.after.InflationsWait - s.before.InflationsWait)
		}), "count"},
		"core.spin_rounds_per_acquire": {per(func(s *layerSample) float64 {
			return ratio(float64(s.after.SpinRounds-s.before.SpinRounds), float64(s.calls.lockCalls))
		}), "count/lock"},
		"monitor.contended_entries":     {ctr("monitor_contended_entries"), "count"},
		"monitor.handoffs":              {ctr("monitor_handoffs"), "count"},
		"monitor.stall_p99_us":          {hist("monitor_stall_ns", 0.99) / 1e3, "us"},
		"monitor.entry_queue_depth_p99": {hist("entry_queue_depth", 0.99), "count"},
		"monitor.wait_us":               {spans.meanDur(spWait) / 1e3, "us"},
		"monitor.notify_ns":             {spans.meanDur(spNotify, spNotifyAll), "ns"},
		"monitor.table_span":            {per(func(s *layerSample) float64 { return float64(s.tableSpan) }), "count"},
		"monitor.live":                  {per(func(s *layerSample) float64 { return float64(s.live) }), "count"},
		"jcl.self_ns":                   {jclSelf, "ns"},
		"jcl.calls_per_req":             {ratio(float64(jclSpans), float64(sampled)), "count/req"},
		"vm.self_us":                    {vmSelf / 1e3, "us"},
		"vm.monitorenter_per_req": {per(func(s *layerSample) float64 {
			return ratio(float64(s.tel.Counter("vm_monitorenter_ops")), float64(s.requests))
		}), "count/req"},
		"object.allocs_per_req": {per(func(s *layerSample) float64 {
			return ratio(float64(s.allocs), float64(s.requests))
		}), "count/req"},
		"goruntime.alloc_bytes_per_req": {per(func(s *layerSample) float64 {
			return ratio(float64(s.rtAfter.allocBytes-s.rtBefore.allocBytes), float64(s.requests))
		}), "B/req"},
		"goruntime.gc_cycles": {per(func(s *layerSample) float64 {
			return float64(s.rtAfter.gcCycles - s.rtBefore.gcCycles)
		}), "count"},
		"goruntime.gc_pause_ms": {per(func(s *layerSample) float64 {
			return float64(s.rtAfter.pauseNs-s.rtBefore.pauseNs) / 1e6
		}), "ms"},
		"goruntime.gc_cpu_fraction": {per(func(s *layerSample) float64 {
			return ratio(s.rtAfter.gcCPU-s.rtBefore.gcCPU, s.rtAfter.totalCPU-s.rtBefore.totalCPU)
		}), "ratio"},
		"bench.trace_overhead": {ratio(median(tracedRate), median(plainRate)), "ratio"},
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
