package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"thinlock/internal/core"
	"thinlock/internal/lockapi"
	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// rng is a splitmix64 generator. Every input of a run is drawn from one,
// seeded from the run's -seed, the epoch number and a per-stream tag, so
// the same seed always yields the same request stream.
type rng struct{ s uint64 }

func newRNG(seed uint64, epoch int, stream uint64) *rng {
	r := &rng{s: seed*0x9E3779B97F4A7C15 ^ uint64(epoch)<<32 ^ stream*0xD1B54A32D192ED03}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// between returns a value in [lo, hi].
func (r *rng) between(lo, hi int) int { return lo + r.intn(hi-lo+1) }

// oneIn reports true with probability 1/n.
func (r *rng) oneIn(n int) bool { return r.intn(n) == 0 }

// mix folds x into a running checksum (FNV-style, as the repo's
// workloads do).
func mix(sum, x uint64) uint64 {
	sum ^= x + 0x9E3779B97F4A7C15
	sum *= 1099511628211
	return sum
}

func hashString(s string) uint64 {
	var h uint64
	for i := 0; i < len(s); i++ {
		h = h*31 + uint64(s[i])
	}
	return h
}

// clock is the benchmark's one time source: monotonic nanoseconds since
// process start.
var clockBase = time.Now()

func nanotime() int64 { return int64(time.Since(clockBase)) }

// clientLog records each request of one client: its latency and the
// time it completed. Slices are sized for an epoch and reused.
type clientLog struct{ lat, done []int64 }

func newClientLogs(clients, perClient int) []clientLog {
	logs := make([]clientLog, clients)
	for c := range logs {
		logs[c] = clientLog{make([]int64, perClient), make([]int64, perClient)}
	}
	return logs
}

// record closes request i, which started at t0.
func (l clientLog) record(i int, t0 int64) {
	t1 := nanotime()
	l.lat[i] = t1 - t0
	l.done[i] = t1
}

// from returns the log from request i on.
func (l clientLog) from(i int) clientLog { return clientLog{l.lat[i:], l.done[i:]} }

// runtimeEnv is the system under test for one epoch: a fresh thread
// registry, heap and default thin lock. locker is what the workload calls;
// it is the lock itself, or the timing wrapper in traced epochs.
type runtimeEnv struct {
	reg    *threading.Registry
	heap   *object.Heap
	lock   *core.ThinLocks
	locker lockapi.Locker
	timing *timingLocker // nil when the epoch is untraced
}

func newRuntimeEnv(traced bool, sampleEvery int) *runtimeEnv {
	e := &runtimeEnv{
		reg:  threading.NewRegistry(),
		heap: object.NewHeap(),
		lock: core.NewDefault(),
	}
	e.locker = e.lock
	if traced {
		e.timing = newTimingLocker(e.lock, sampleEvery)
		e.locker = e.timing
	}
	return e
}

// trace returns t's per-thread trace state, or nil in an untraced epoch.
// Every method of *threadTrace is a no-op on nil.
func (e *runtimeEnv) trace(t *threading.Thread) *threadTrace {
	if e.timing == nil {
		return nil
	}
	return e.timing.thread(t)
}

// unlock releases o and counts a failure instead of panicking, so a lock
// error shows up in error_rate.
func (e *runtimeEnv) unlock(t *threading.Thread, o *object.Object, failed *int) {
	if err := e.locker.Unlock(t, o); err != nil {
		*failed++
	}
}

// quiescence returns the lock-state violations visible through public
// APIs after a drained epoch: a live thread, a retained object still
// locked, or a monitor count that does not match the inflation count.
func (e *runtimeEnv) quiescence(retained []*object.Object) []string {
	var v []string
	if n := e.reg.Attached(); n != 0 {
		v = append(v, fmt.Sprintf("%d threads still attached after drain", n))
	}
	for _, o := range retained {
		if h := e.lock.HolderIndex(o); h != 0 {
			v = append(v, fmt.Sprintf("%v still locked by thread %d", o, h))
			break
		}
	}
	st := e.lock.Stats()
	if uint64(st.FatLocks) != st.Inflations() {
		v = append(v, fmt.Sprintf("FatLocks %d != Inflations %d", st.FatLocks, st.Inflations()))
	}
	return v
}

// quantile returns the q-quantile of sorted by the nearest-rank method.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	i = max(0, min(i, len(sorted)-1))
	return sorted[i]
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(max(1, len(xs)))
}

// median returns the median of xs (the mean of the middle two for an
// even count), leaving xs unchanged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
