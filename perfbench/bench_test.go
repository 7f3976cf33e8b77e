package main

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"thinlock/internal/lockapi"
	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// smallRequests keeps test epochs to a few milliseconds.
const smallRequests = 2000

func runSmallEpoch(t *testing.T, w *workload, seed uint64, traced bool) *epochResult {
	t.Helper()
	logs := newClientLogs(w.clients, smallRequests/w.clients)
	r, err := runEpoch(w, seed, 0, smallRequests, traced, logs, &spanStats{})
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 || len(r.violations) != 0 {
		t.Fatalf("%s: %d failed, violations %v", w.name, r.failed, r.violations)
	}
	return r
}

func TestSameSeedSameStream(t *testing.T) {
	if !slices.Equal(genSolo(7, 0, 500), genSolo(7, 0, 500)) {
		t.Error("solo-sync: same seed gave different streams")
	}
	if slices.Equal(genSolo(7, 0, 500), genSolo(8, 0, 500)) {
		t.Error("solo-sync: different seeds gave the same stream")
	}
	a, b, c := genPair(7, 0, 500), genPair(7, 0, 500), genPair(8, 0, 500)
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			t.Error("pair-contend: same seed gave different streams")
		}
		if slices.Equal(a[i], c[i]) {
			t.Error("pair-contend: different seeds gave the same stream")
		}
	}
	for _, w := range workloads() {
		x, y := runSmallEpoch(t, w, 7, false), runSmallEpoch(t, w, 7, false)
		if x.checksum != y.checksum {
			t.Errorf("%s: same seed gave checksums %#x and %#x", w.name, x.checksum, y.checksum)
		}
		if z := runSmallEpoch(t, w, 8, false); z.checksum == x.checksum {
			t.Errorf("%s: seeds 7 and 8 gave the same checksum %#x", w.name, x.checksum)
		}
	}
}

func TestNoWorkloadStartsMoreThanNprocThreads(t *testing.T) {
	for _, w := range workloads() {
		if w.clients > runtime.NumCPU() {
			t.Errorf("%s declares %d clients on a %d-CPU machine", w.name, w.clients, runtime.NumCPU())
		}
		env := newRuntimeEnv(false, 1)
		ep, err := w.build(env, 1, 0, smallRequests)
		if err != nil {
			t.Fatal(err)
		}
		ep.run(newClientLogs(w.clients, smallRequests/w.clients))
		if peak := env.reg.Peak(); peak > w.clients || peak > runtime.NumCPU() {
			t.Errorf("%s: %d threads attached at once, want at most %d clients and %d CPUs",
				w.name, peak, w.clients, runtime.NumCPU())
		}
		if n := env.reg.Attached(); n != 0 {
			t.Errorf("%s: %d threads still attached after the run", w.name, n)
		}
	}
}

func TestSelfTimeNeverNegative(t *testing.T) {
	tests := []struct {
		name  string
		spans []span
		want  []int64
	}{
		{"nested", []span{
			{start: 0, end: 100, parent: -1},
			{start: 10, end: 40, parent: 0},
			{start: 20, end: 30, parent: 1},
			{start: 50, end: 60, parent: 0},
		}, []int64{60, 20, 10, 10}},
		{"overlapping children merge", []span{
			{start: 0, end: 100, parent: -1},
			{start: 10, end: 60, parent: 0},
			{start: 40, end: 90, parent: 0},
		}, []int64{20, 50, 50}},
		{"children out of order", []span{
			{start: 0, end: 100, parent: -1},
			{start: 70, end: 80, parent: 0},
			{start: 10, end: 20, parent: 0},
		}, []int64{80, 10, 10}},
		{"child outside its parent is clipped", []span{
			{start: 10, end: 50, parent: -1},
			{start: 0, end: 30, parent: 0},
			{start: 40, end: 90, parent: 0},
		}, []int64{10, 30, 50}},
		{"children cover more than the parent", []span{
			{start: 0, end: 10, parent: -1},
			{start: 0, end: 10, parent: 0},
			{start: 0, end: 10, parent: 0},
			{start: 5, end: 10, parent: 0},
		}, []int64{0, 10, 10, 5}},
		{"reversed clock", []span{
			{start: 50, end: 40, parent: -1},
			{start: 45, end: 48, parent: 0},
		}, []int64{0, 3}},
		{"bad parent indices", []span{
			{start: 0, end: 10, parent: 0},
			{start: 0, end: 10, parent: 7},
		}, []int64{10, 10}},
	}
	for _, tc := range tests {
		got := selfTimes(tc.spans)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: self times %v, want %v", tc.name, got, tc.want)
		}
		for i, s := range got {
			if s < 0 || s > max(0, tc.spans[i].end-tc.spans[i].start) {
				t.Errorf("%s: span %d self time %d outside [0, duration]", tc.name, i, s)
			}
		}
	}
}

// TestTracedEpochLayerCounts checks the per-layer counts the benchmark's
// documentation promises under the default lock.
func TestTracedEpochLayerCounts(t *testing.T) {
	solo := runSmallEpoch(t, soloWorkload(), 3, true).layer
	if n := solo.after.Inflations(); n != 0 {
		t.Errorf("solo-sync: %d inflations", n)
	}
	if m := layerMetrics([]*epochResult{{layer: solo, requests: 1, windowNs: 1}}, &spanStats{}); m["core.fast_path_ratio"].Value != 1 {
		t.Errorf("solo-sync: fast path ratio %v, want 1", m["core.fast_path_ratio"].Value)
	}
	churn := runSmallEpoch(t, churnWorkload(), 3, true).layer
	if uint64(churn.tableSpan) != churn.after.Inflations() || churn.tableSpan == 0 {
		t.Errorf("monitor-churn: table span %d, inflations %d", churn.tableSpan, churn.after.Inflations())
	}
	pair := runSmallEpoch(t, pairWorkload(), 3, true).layer
	if n := pair.after.Inflations(); n > pairGuards {
		t.Errorf("pair-contend: %d inflations with %d guards", n, pairGuards)
	}
}

// countingLocker counts Lock calls, nested ones included: the syncs of
// Table 1.
type countingLocker struct {
	lockapi.Locker
	locks int
}

func (c *countingLocker) Lock(t *threading.Thread, o *object.Object) {
	c.locks++
	c.Locker.Lock(t, o)
}

// soloSyncsByKind runs n solo-sync requests of seed's stream and returns
// each request kind's lock operations and request count.
func soloSyncsByKind(t *testing.T, seed uint64, n int) (syncs, reqs [4]int) {
	t.Helper()
	env := newRuntimeEnv(false, 1)
	cl := &countingLocker{Locker: env.lock}
	env.locker = cl
	ep, err := buildSolo(env, seed, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	e := ep.(*soloEpoch)
	th, err := env.reg.Attach("count")
	if err != nil {
		t.Fatal(err)
	}
	defer env.reg.Detach(th)
	for i := soloWarmup; i < len(e.reqs); i++ {
		before := cl.locks
		e.exec(th, nil, i)
		syncs[e.reqs[i].kind] += cl.locks - before
		reqs[e.reqs[i].kind]++
	}
	return syncs, reqs
}

// table1Syncs are the syncs Table 1 measures (macrobench -table1, default
// size) for each solo-sync request kind's source workload: jax, sessiond,
// crema and minibank.
var table1Syncs = [4]int{kindDataflow: 577469, kindSession: 92008, kindScratch: 146400, kindVMCall: 32000}

func TestSoloSyncSharesFollowTable1(t *testing.T) {
	if sum := soloKindWeights[0] + soloKindWeights[1] + soloKindWeights[2] + soloKindWeights[3]; sum != 1000 {
		t.Fatalf("kind weights sum to %d per mille", sum)
	}
	syncs, reqs := soloSyncsByKind(t, 1, 100000)
	var total, want int
	for k := range syncs {
		total += syncs[k]
		want += table1Syncs[k]
	}
	for k := range syncs {
		got, w := float64(syncs[k])/float64(total), float64(table1Syncs[k])/float64(want)
		t.Logf("kind %d: %d requests, %.1f syncs each, %.1f%% of syncs (Table 1: %.1f%%)",
			k, reqs[k], float64(syncs[k])/float64(reqs[k]), 100*got, 100*w)
		if math.Abs(got-w) > 0.02 {
			t.Errorf("kind %d has %.1f%% of the syncs, Table 1 gives %.1f%%", k, 100*got, 100*w)
		}
	}
}
