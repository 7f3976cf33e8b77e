package monitorcache

import (
	"sync"
	"testing"
	"time"

	"thinlock/internal/object"
	"thinlock/internal/telemetry"
	"thinlock/internal/testutil"
	"thinlock/internal/threading"
)

type fixture struct {
	c    *Cache
	heap *object.Heap
	reg  *threading.Registry
}

func newFixture(opts Options) *fixture {
	return &fixture{c: New(opts), heap: object.NewHeap(), reg: threading.NewRegistry()}
}

func (f *fixture) thread(t *testing.T) *threading.Thread {
	t.Helper()
	th, err := f.reg.Attach("t")
	if err != nil {
		t.Fatal(err)
	}
	return th
}

// TestLockUnlockBasic: enter and exit both consult the cache, and only
// the first binds a monitor. Not parallel: telemetry is process-global.
func TestLockUnlockBasic(t *testing.T) {
	tel := telemetry.Enable(telemetry.New())
	defer telemetry.Disable()
	f := newFixture(Options{})
	th := f.thread(t)
	o := f.heap.New("X")
	f.c.Lock(th, o)
	if f.c.BoundMonitors() != 1 {
		t.Errorf("BoundMonitors = %d, want 1", f.c.BoundMonitors())
	}
	if err := f.c.Unlock(th, o); err != nil {
		t.Fatal(err)
	}
	if got := tel.Counter(telemetry.CtrCacheLookups); got != 2 {
		t.Errorf("cache_lookups = %d, want 2 (enter and exit both consult the cache)", got)
	}
	if got := tel.Counter(telemetry.CtrCacheMisses); got != 1 {
		t.Errorf("cache_misses = %d, want 1", got)
	}
}

func TestNestedLocking(t *testing.T) {
	t.Parallel()
	f := newFixture(Options{})
	th := f.thread(t)
	o := f.heap.New("X")
	for i := 0; i < 5; i++ {
		f.c.Lock(th, o)
	}
	for i := 0; i < 5; i++ {
		if err := f.c.Unlock(th, o); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.c.Unlock(th, o); err != ErrIllegalMonitorState {
		t.Fatalf("extra unlock: err = %v", err)
	}
}

func TestUnlockOfNeverLockedObject(t *testing.T) {
	t.Parallel()
	f := newFixture(Options{})
	th := f.thread(t)
	o := f.heap.New("X")
	if err := f.c.Unlock(th, o); err != ErrIllegalMonitorState {
		t.Fatalf("err = %v, want ErrIllegalMonitorState", err)
	}
	if _, err := f.c.Wait(th, o, 0); err != ErrIllegalMonitorState {
		t.Fatalf("wait err = %v, want ErrIllegalMonitorState", err)
	}
	if err := f.c.Notify(th, o); err != ErrIllegalMonitorState {
		t.Fatalf("notify err = %v", err)
	}
	if err := f.c.NotifyAll(th, o); err != ErrIllegalMonitorState {
		t.Fatalf("notifyAll err = %v", err)
	}
}

// TestFreeListSweepWhenWorkingSetExceedsCapacity: a working set past
// the pool sweeps the free list and recycles monitors rather than
// growing the pool. Not parallel: telemetry is process-global.
func TestFreeListSweepWhenWorkingSetExceedsCapacity(t *testing.T) {
	tel := telemetry.Enable(telemetry.New())
	defer telemetry.Disable()
	f := newFixture(Options{Capacity: 8})
	th := f.thread(t)
	// Lock/unlock 50 distinct objects: the pool of 8 must sweep.
	for i := 0; i < 50; i++ {
		o := f.heap.New("X")
		f.c.Lock(th, o)
		if err := f.c.Unlock(th, o); err != nil {
			t.Fatal(err)
		}
	}
	if tel.Counter(telemetry.CtrCacheSweeps) == 0 {
		t.Error("working set over capacity never swept the free list")
	}
	// 50 objects bound through a pool of 8: every monitor past the
	// eighth was a recycled one.
	if f.c.PoolSize() != 8 {
		t.Errorf("pool grew to %d; recyclable monitors were available", f.c.PoolSize())
	}
}

func TestPoolExpandsWhenAllMonitorsHeld(t *testing.T) {
	t.Parallel()
	f := newFixture(Options{Capacity: 4})
	th := f.thread(t)
	objs := make([]*object.Object, 6)
	for i := range objs {
		objs[i] = f.heap.New("X")
		f.c.Lock(th, objs[i]) // hold all of them: nothing recyclable
	}
	if f.c.PoolSize() != 6 {
		t.Errorf("PoolSize = %d, want 6: holding more monitors than capacity must expand the pool", f.c.PoolSize())
	}
	for _, o := range objs {
		if err := f.c.Unlock(th, o); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRecycledMonitorServesNewObject(t *testing.T) {
	t.Parallel()
	f := newFixture(Options{Capacity: 1})
	th := f.thread(t)
	a := f.heap.New("A")
	b := f.heap.New("B")
	f.c.Lock(th, a)
	if err := f.c.Unlock(th, a); err != nil {
		t.Fatal(err)
	}
	f.c.Lock(th, b) // forces recycling of a's monitor
	if err := f.c.Unlock(th, b); err != nil {
		t.Fatal(err)
	}
	// a's binding is gone; unlocking it must now fail.
	if err := f.c.Unlock(th, a); err != ErrIllegalMonitorState {
		t.Fatalf("unlock after recycle: err = %v", err)
	}
}

func TestMutualExclusion(t *testing.T) {
	t.Parallel()
	f := newFixture(Options{})
	o := f.heap.New("X")
	const goroutines, iters = 8, 300
	var counter int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		th := f.thread(t)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				f.c.Lock(th, o)
				counter++
				if err := f.c.Unlock(th, o); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if counter != goroutines*iters {
		t.Fatalf("counter = %d, want %d", counter, goroutines*iters)
	}
}

// TestConcurrentDistinctObjectsUnderPressure checks that the sweep never
// recycles a monitor out from under a thread that is about to use it.
func TestConcurrentDistinctObjectsUnderPressure(t *testing.T) {
	t.Parallel()
	f := newFixture(Options{Capacity: 4})
	const goroutines, iters, objects = 6, 200, 32
	objs := make([]*object.Object, objects)
	for i := range objs {
		objs[i] = f.heap.New("X")
	}
	counters := make([]int64, objects)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		th := f.thread(t)
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (seed*31 + i*7) % objects
				f.c.Lock(th, objs[k])
				counters[k]++
				if err := f.c.Unlock(th, objs[k]); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for _, c := range counters {
		total += c
	}
	if total != goroutines*iters {
		t.Fatalf("total = %d, want %d (increments lost)", total, goroutines*iters)
	}
}

func TestWaitNotifyThroughCache(t *testing.T) {
	t.Parallel()
	f := newFixture(Options{})
	a, b := f.thread(t), f.thread(t)
	o := f.heap.New("X")
	woke := make(chan bool, 1)
	go func() {
		f.c.Lock(a, o)
		n, err := f.c.Wait(a, o, 0)
		if err != nil {
			t.Error(err)
		}
		woke <- n
		if err := f.c.Unlock(a, o); err != nil {
			t.Error(err)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		f.c.Lock(b, o)
		if err := f.c.Notify(b, o); err != nil {
			t.Fatal(err)
		}
		if err := f.c.Unlock(b, o); err != nil {
			t.Fatal(err)
		}
		select {
		case n := <-woke:
			if !n {
				t.Fatal("waiter woke by timeout")
			}
			return
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("waiter never notified")
			}
		}
	}
}

// TestWaiterSurvivesSweepPressure: an object whose monitor hosts a waiter
// must not be recycled even under free-list pressure.
func TestWaiterSurvivesSweepPressure(t *testing.T) {
	t.Parallel()
	f := newFixture(Options{Capacity: 2})
	a, b := f.thread(t), f.thread(t)
	o := f.heap.New("W")
	woke := make(chan struct{})
	go func() {
		f.c.Lock(a, o)
		if _, err := f.c.Wait(a, o, 0); err != nil {
			t.Error(err)
		}
		close(woke)
		if err := f.c.Unlock(a, o); err != nil {
			t.Error(err)
		}
	}()
	// Wait for the waiter to enter the wait set, then churn the cache.
	testutil.Eventually(t, 0, "waiter parked in the wait set", func() bool {
		e := f.c.lookupExisting(nil, o)
		if e == nil {
			return false
		}
		defer f.c.unpin(e)
		return e.mon.WaitSetLen() == 1
	})
	for i := 0; i < 30; i++ {
		x := f.heap.New("X")
		f.c.Lock(b, x)
		if err := f.c.Unlock(b, x); err != nil {
			t.Fatal(err)
		}
	}
	f.c.Lock(b, o)
	if err := f.c.Notify(b, o); err != nil {
		t.Fatal(err)
	}
	if err := f.c.Unlock(b, o); err != nil {
		t.Fatal(err)
	}
	select {
	case <-woke:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter lost: monitor recycled under it")
	}
}

func TestName(t *testing.T) {
	t.Parallel()
	if NewDefault().Name() != "JDK111" {
		t.Error("Name mismatch")
	}
	if NewDefault().PoolSize() != DefaultCapacity {
		t.Error("default capacity mismatch")
	}
}
