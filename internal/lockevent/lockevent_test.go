package lockevent

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// recorder is a test sink that counts the events it receives by kind
// and, when capture is set, captures the site of every acquire.
type recorder struct {
	kinds   Mask
	capture bool
	n       [32]atomic.Int64
	site    atomic.Pointer[SiteKey]
}

func (r *recorder) Kinds() Mask { return r.kinds }

func (r *recorder) Event(e Event) {
	r.n[e.Kind].Add(1)
	if r.capture && e.Kind == KindAcquire {
		k := CaptureSite(e.T)
		r.site.Store(&k)
	}
}

func fixture(t *testing.T) (*threading.Thread, *object.Object) {
	t.Helper()
	th, err := threading.NewRegistry().Attach("t")
	if err != nil {
		t.Fatal(err)
	}
	return th, object.NewHeap().New("Obj")
}

// Not parallel: every test here owns the global sink set.
func TestDispatchReachesOnlyConsumingSinks(t *testing.T) {
	th, o := fixture(t)
	acq := &recorder{kinds: Of(KindAcquire)}
	inf := &recorder{kinds: Of(KindInflate, KindCount)}
	Install(SlotTelemetry, acq)
	Install(SlotLockdep, inf)
	defer Install(SlotTelemetry, nil)
	defer Install(SlotLockdep, nil)

	Emit(KindAcquire, th, o)
	Inflate(th, o, CauseWait)
	Count(th, CtrHotOps)
	Emit(KindRelease, th, o) // nobody consumes it
	if got := acq.n[KindAcquire].Load(); got != 1 || acq.n[KindInflate].Load() != 0 {
		t.Errorf("acquire sink saw acquire %d, inflate %d; want 1, 0", got, acq.n[KindInflate].Load())
	}
	if inf.n[KindInflate].Load() != 1 || inf.n[KindCount].Load() != 1 || inf.n[KindAcquire].Load() != 0 {
		t.Errorf("inflate sink counts = %v", &inf.n)
	}
	if Wants(KindRelease) || !Wants(KindCount) || !On() {
		t.Error("union mask does not match the installed sinks")
	}

	Install(SlotTelemetry, nil)
	Install(SlotLockdep, nil)
	if On() || Wants(KindAcquire) || Installed(SlotTelemetry) != nil {
		t.Error("emptying every slot left a sink installed")
	}
	if start := SlowEnter(th, o); start != 0 {
		t.Errorf("SlowEnter with no sink returned stamp %d, want 0", start)
	}
}

func TestTimedKindsCarryElapsedTime(t *testing.T) {
	th, o := fixture(t)
	var got atomic.Int64
	Install(SlotProfiler, sinkFunc{Of(KindSlowExit), func(e Event) { got.Store(e.N) }})
	defer Install(SlotProfiler, nil)
	start := SlowEnter(th, o)
	if start == 0 {
		t.Fatal("SlowEnter returned no stamp although SlowExit is consumed")
	}
	SlowExit(th, o, start)
	if n := got.Load(); n < 0 || n > int64(1e12) {
		t.Errorf("slow-exit latency = %d ns, want a small non-negative duration", n)
	}
}

type sinkFunc struct {
	kinds Mask
	f     func(Event)
}

func (s sinkFunc) Kinds() Mask   { return s.kinds }
func (s sinkFunc) Event(e Event) { s.f(e) }

func TestEmittersDoNotAllocate(t *testing.T) {
	th, o := fixture(t)
	emitAll := func() {
		Emit(KindAcquire, th, o)
		SlowExit(th, o, SlowEnter(th, o))
		Spin(th, o, WaitSpin)
		Park(th, o, WaitQueued, Stamp(KindPark))
		Inflate(th, o, CauseContention)
		Count(th, CtrHotOps)
	}
	if a := testing.AllocsPerRun(100, emitAll); a != 0 {
		t.Errorf("disabled emitters allocate %.1f objects per round", a)
	}
	Install(SlotTelemetry, &recorder{kinds: ^Mask(0)})
	defer Install(SlotTelemetry, nil)
	if a := testing.AllocsPerRun(100, emitAll); a != 0 {
		t.Errorf("enabled emitters allocate %.1f objects per round", a)
	}
}

// lockPath stands in for a lock implementation raising an event.
func lockPath(th *threading.Thread, o *object.Object) { Emit(KindAcquire, th, o) }

func TestCaptureSiteStartsAtTheEmitter(t *testing.T) {
	th, o := fixture(t)
	r := &recorder{kinds: Of(KindAcquire), capture: true}
	Install(SlotLockdep, r)
	defer Install(SlotLockdep, nil)

	lockPath(th, o)
	k := r.site.Load()
	if k == nil || k.IsVM() {
		t.Fatalf("site = %+v, want a Go site", k)
	}
	// The key starts at the emitter inlined into lockPath: no frame of
	// the sink or of dispatch precedes it.
	frames := k.Frames()
	if len(frames) < 2 || !strings.HasSuffix(frames[0].Func, ".Emit") ||
		!strings.HasSuffix(frames[1].Func, ".lockPath") {
		t.Errorf("site frames = %+v, want Emit then lockPath first", frames)
	}

	th.PublishFrame("Demo.run", 7)
	lockPath(th, o)
	th.ClearFrame()
	if got := r.site.Load().Label(); got != "Demo.run @7" {
		t.Errorf("VM site label = %q, want %q", got, "Demo.run @7")
	}
}

func TestConcurrentInstallAndEmit(t *testing.T) {
	th, o := fixture(t)
	r := &recorder{kinds: ^Mask(0)}
	defer Install(SlotTelemetry, nil)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				Emit(KindAcquire, th, o)
				Park(th, o, WaitFat, Stamp(KindPark))
			}
		}
	}()
	for i := 0; i < 1000; i++ {
		Install(SlotTelemetry, r)
		Install(SlotTelemetry, nil)
	}
	close(stop)
	wg.Wait()
}

func TestTableBoundsAndIDs(t *testing.T) {
	tb := NewTable[uint64, int](64)
	e, id := tb.Get(7, Mix64(7), func(k uint64, r *int) { *r = int(k) * 2 })
	if e == nil || e.Rec != 14 || tb.ByID(id) != e {
		t.Fatalf("Get(7) = %+v id %d; ByID does not round-trip", e, id)
	}
	if again, id2 := tb.Get(7, Mix64(7), nil); again != e || id2 != id {
		t.Error("a second Get of the same key inserted a new entry")
	}
	for k := uint64(100); k < 200; k++ {
		tb.Get(k, 0, nil) // one probe window: all collide at slot 0
	}
	if len(tb.Entries()) != 64 || tb.Drops() == 0 {
		t.Errorf("entries = %d, drops = %d; want a full table and counted drops",
			len(tb.Entries()), tb.Drops())
	}
}
