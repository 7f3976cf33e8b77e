package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"

	"thinlock/internal/core"
	"thinlock/internal/telemetry"
)

// A workload builds a fresh runtime for every epoch and runs a fixed-size
// request stream against it in a closed loop: each client sends its next
// request only when the previous one has returned.
type workload struct {
	name        string
	clients     int // client threads, each one attached worker
	requests    int // requests per epoch, over all clients
	sampleEvery int // traced epochs put spans on every n-th request of a client
	build       func(env *runtimeEnv, seed uint64, epoch int, requests int) (epochRun, error)
}

// epochRun is one built epoch.
type epochRun interface {
	// requests is the number of timed requests.
	requests() int
	// run executes the timed requests, filling one log per client, and
	// returns the timed window in ns.
	run(logs []clientLog) int64
	// check compares outputs with the model and checks quiescence,
	// returning one line per violation.
	check() []string
	// failures counts failed requests and lock operations.
	failures() int
	// checksum folds the epoch's outputs.
	checksum() uint64
	// dropInputs releases the generated inputs, the model's state and
	// the outputs the checks read, so the retained heap counts only the
	// runtime and what it holds.
	dropInputs()
}

func workloads() []*workload {
	return []*workload{soloWorkload(), pairWorkload(), churnWorkload()}
}

func workloadByName(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// epochResult is what one epoch measured.
type epochResult struct {
	traced     bool
	setupNs    int64
	windowNs   int64
	requests   int
	failed     int
	violations []string
	checksum   uint64
	p50, p99   int64       // request latency, ns
	sketch     []int64     // sketchPoints evenly spaced latency quantiles, ns
	rates      [][]float64 // per client, requests/s in each rateWindow
	retained   int64       // bytes, untraced epochs only
	layer      *layerSample
}

// sketchPoints is the number of latency quantiles an epoch keeps, so
// that a run's latency percentiles can be taken over all its requests.
const sketchPoints = 2000

// sketch returns sketchPoints evenly spaced quantiles of sorted.
func sketch(sorted []int64) []int64 {
	q := make([]int64, sketchPoints)
	for i := range q {
		q[i] = quantile(sorted, (float64(i)+0.5)/sketchPoints)
	}
	return q
}

// reqPerSec is the epoch's throughput: requests completed over the timed
// window, so GC work and stalls inside the window count against it.
func (r *epochResult) reqPerSec() float64 {
	return float64(r.requests) / (float64(r.windowNs) / 1e9)
}

// rateWindow is the number of consecutive requests of one client over
// which the details sample throughput.
const rateWindow = 1024

// windowedReqPerSec is the sum over clients of each client's median
// windowed rate. It leaves out stalls that hit only a few windows, so it
// goes to the details only, beside req_per_s, to tell a stall from a
// slowdown of every request.
func (r *epochResult) windowedReqPerSec() float64 {
	var sum float64
	for _, rates := range r.rates {
		sum += median(rates)
	}
	return sum
}

// windowRates returns the client's throughput over each rateWindow
// consecutive requests, measured between completion times.
func windowRates(done []int64) []float64 {
	var rates []float64
	for i := rateWindow; i < len(done); i += rateWindow {
		if d := done[i] - done[i-rateWindow]; d > 0 {
			rates = append(rates, rateWindow/(float64(d)/1e9))
		}
	}
	return rates
}

// runEpoch builds, runs, checks and measures one epoch. logs are reused
// across epochs so their memory is outside the retained-heap window.
func runEpoch(w *workload, seed uint64, epoch, requests int, traced bool, logs []clientLog, spans *spanStats) (*epochResult, error) {
	res := &epochResult{traced: traced}
	runtime.GC()
	before := liveHeap()

	t0 := nanotime()
	env := newRuntimeEnv(traced, w.sampleEvery)
	ep, err := w.build(env, seed, epoch, requests)
	if err != nil {
		return nil, fmt.Errorf("%s epoch %d set-up: %w", w.name, epoch, err)
	}
	res.setupNs = nanotime() - t0
	res.requests = ep.requests()

	var probe *layerProbe
	if traced {
		probe = startProbe(env)
	}
	res.windowNs = ep.run(logs)
	if traced {
		res.layer = probe.finish(env, res.requests, spans)
	}

	res.failed = ep.failures()
	res.violations = ep.check()
	res.checksum = ep.checksum()
	var all []int64
	per := res.requests / w.clients
	for _, l := range logs {
		all = append(all, l.lat[:per]...)
		res.rates = append(res.rates, windowRates(l.done[:per]))
	}
	slices.Sort(all)
	res.p50, res.p99 = quantile(all, 0.50), quantile(all, 0.99)
	res.sketch = sketch(all)

	if !traced {
		ep.dropInputs()
		runtime.GC()
		res.retained = liveHeap() - before
	}
	runtime.KeepAlive(env)
	runtime.KeepAlive(ep)
	return res, nil
}

// liveHeap returns the bytes of heap objects the last GC marked live.
func liveHeap() int64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// runtimeCounters are the Go runtime's cumulative counters.
type runtimeCounters struct {
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64
	pauseNs              uint64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntimeCounters() runtimeCounters {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeCounters{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
		pauseNs:    ms.PauseTotalNs,
	}
}

// layerProbe holds the public counters read at the start of a traced
// epoch's timed window.
type layerProbe struct {
	tel   *telemetry.Telemetry
	stats core.Stats
	alloc uint64
	calls callCounts
	rt    runtimeCounters
}

func startProbe(env *runtimeEnv) *layerProbe {
	p := &layerProbe{
		tel:   telemetry.New(),
		stats: env.lock.Stats(),
		alloc: env.heap.Allocated(),
		calls: env.timing.counts(),
	}
	for _, tt := range env.timing.threads {
		tt.spans = tt.spans[:0] // spans belong to the timed window only
	}
	p.rt = readRuntimeCounters()
	telemetry.Enable(p.tel)
	return p
}

// layerSample is one traced epoch's per-layer counts, as deltas over
// its timed window.
type layerSample struct {
	requests  int
	calls     callCounts
	tel       telemetry.Snapshot
	before    core.Stats
	after     core.Stats
	allocs    uint64
	rtBefore  runtimeCounters
	rtAfter   runtimeCounters
	tableSpan int
	live      int
}

func (p *layerProbe) finish(env *runtimeEnv, requests int, spans *spanStats) *layerSample {
	telemetry.Disable()
	s := &layerSample{
		requests: requests,
		calls:    env.timing.counts().minus(p.calls),
		tel:      p.tel.Snapshot(),
		before:   p.stats,
		after:    env.lock.Stats(),
		allocs:   env.heap.Allocated() - p.alloc,
		rtBefore: p.rt,
		rtAfter:  readRuntimeCounters(),
	}
	s.tableSpan, s.live = s.after.TableSpan, s.after.LiveMonitors
	spans.collect(env.timing)
	return s
}
