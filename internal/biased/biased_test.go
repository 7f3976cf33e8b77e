package biased

import (
	"testing"
	"time"

	"thinlock/internal/object"
	"thinlock/internal/telemetry"
	"thinlock/internal/testutil"
	"thinlock/internal/threading"
)

// world is one test's isolated locker, registry and heap.
type world struct {
	l    *Locker
	reg  *threading.Registry
	heap *object.Heap
}

func newWorld(t *testing.T, opts Options) *world {
	t.Helper()
	return &world{l: New(opts), reg: threading.NewRegistry(), heap: object.NewHeap()}
}

func (w *world) thread(t *testing.T, name string) *threading.Thread {
	t.Helper()
	th, err := w.reg.Attach(name)
	if err != nil {
		t.Fatalf("attach %s: %v", name, err)
	}
	return th
}

// TestReservationLifecycle: the first acquisition installs a
// reservation; re-acquisitions and releases by the owner leave the
// header word untouched and cost no further installs. Not parallel:
// telemetry is process-global.
func TestReservationLifecycle(t *testing.T) {
	tel := telemetry.Enable(telemetry.New())
	defer telemetry.Disable()
	w := newWorld(t, Options{})
	a := w.thread(t, "a")
	o := w.heap.New("obj")

	w.l.Lock(a, o)
	if !w.l.Biased(o) {
		t.Fatal("first lock did not install a reservation")
	}
	if hi := w.l.HolderIndex(o); hi != 0 {
		t.Fatalf("HolderIndex = %d for a biased word, want 0 (depth is slot-private)", hi)
	}
	header := o.Header()
	if err := w.l.Unlock(a, o); err != nil {
		t.Fatalf("unlock: %v", err)
	}
	if !w.l.Biased(o) {
		t.Fatal("release dropped the reservation")
	}
	for i := 0; i < 50; i++ {
		w.l.Lock(a, o)
		if err := w.l.Unlock(a, o); err != nil {
			t.Fatalf("round %d unlock: %v", i, err)
		}
	}
	if got := o.Header(); got != header {
		t.Fatalf("owner's reacquisitions wrote the header: %#08x → %#08x", header, got)
	}
	if got := tel.Counter(telemetry.CtrBiasInstalls); got != 1 {
		t.Fatalf("bias_installs = %d, want 1", got)
	}
	if s := w.l.Stats(); revocations(tel) != 0 || s.Inflations() != 0 || s.FatLocks != 0 {
		t.Fatalf("single-owner use triggered revocation/inflation: %d revocations, %+v", revocations(tel), s)
	}
	if err := w.l.Unlock(a, o); err != ErrIllegalMonitorState {
		t.Fatalf("unheld unlock err = %v, want ErrIllegalMonitorState", err)
	}
}

// TestContenderRevokesUnheldReservation: a second thread locking an
// object whose reservation is not currently held must revoke the bias
// (rebiasing is off here, so no transfer) and acquire a conventional
// thin lock. Not parallel: telemetry is process-global.
func TestContenderRevokesUnheldReservation(t *testing.T) {
	tel := telemetry.Enable(telemetry.New())
	defer telemetry.Disable()
	w := newWorld(t, Options{DisableRebias: true})
	a, b := w.thread(t, "a"), w.thread(t, "b")
	o := w.heap.New("obj")

	w.l.Lock(a, o)
	if err := w.l.Unlock(a, o); err != nil {
		t.Fatal(err)
	}
	w.l.Lock(b, o)
	if w.l.Biased(o) {
		t.Fatal("reservation survived a contender's acquisition")
	}
	if hi := w.l.HolderIndex(o); hi != b.Index() {
		t.Fatalf("HolderIndex = %d, want %d", hi, b.Index())
	}
	if err := w.l.Unlock(b, o); err != nil {
		t.Fatal(err)
	}
	if got := tel.Counter(telemetry.CtrBiasRevocationsContention); got != 1 {
		t.Fatalf("bias_revocations_contention = %d, want 1", got)
	}
	if got := tel.Counter(telemetry.CtrBiasTransfers); got != 0 {
		t.Fatalf("bias_transfers = %d with rebiasing disabled", got)
	}
	// Revoking an unheld reservation allocates no monitor.
	if n := w.l.Stats().FatLocks; n != 0 {
		t.Fatalf("FatLocks = %d after an uncontended revocation", n)
	}
	// The object must never re-bias after revocation.
	w.l.Lock(a, o)
	if w.l.Biased(o) {
		t.Fatal("object re-biased after revocation")
	}
	if err := w.l.Unlock(a, o); err != nil {
		t.Fatal(err)
	}
}

// TestContenderRevokesHeldReservation: revoking a reservation held at
// depth 2 must surface exactly depth 2 in the conventional word — the
// owner unwinds with exactly two unlocks and the blocked contender then
// acquires. Not parallel: telemetry is process-global.
func TestContenderRevokesHeldReservation(t *testing.T) {
	tel := telemetry.Enable(telemetry.New())
	defer telemetry.Disable()
	w := newWorld(t, Options{})
	a := w.thread(t, "a")
	o := w.heap.New("obj")

	w.l.Lock(a, o)
	w.l.Lock(a, o)
	acquired := make(chan struct{})
	done, err := w.reg.Go("b", func(b *threading.Thread) {
		w.l.Lock(b, o)
		close(acquired)
		if err := w.l.Unlock(b, o); err != nil {
			t.Errorf("b unlock: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the contender has revoked the bias (the word leaves the
	// biased state), proving the revocation ran against a *held*
	// reservation rather than after our releases.
	for w.l.Biased(o) {
		time.Sleep(50 * time.Microsecond)
	}
	select {
	case <-acquired:
		t.Fatal("contender acquired while the reservation was held at depth 2")
	default:
	}
	if err := w.l.Unlock(a, o); err != nil {
		t.Fatalf("unlock 1: %v", err)
	}
	if err := w.l.Unlock(a, o); err != nil {
		t.Fatalf("unlock 2: %v", err)
	}
	select {
	case <-done:
	case <-time.After(testutil.DefaultWaitTimeout):
		t.Fatal("contender never acquired after the owner unwound")
	}
	if err := w.l.Unlock(a, o); err != ErrIllegalMonitorState {
		t.Fatalf("third unlock err = %v, want ErrIllegalMonitorState", err)
	}
	if got := tel.Counter(telemetry.CtrBiasRevocationsContention); got != 1 {
		t.Fatalf("bias_revocations_contention = %d, want 1", got)
	}
	if s := w.l.Stats(); uint64(s.FatLocks) != s.Inflations() {
		t.Fatalf("FatLocks = %d, Inflations = %d: monitor accounting broken", s.FatLocks, s.Inflations())
	}
}

// TestWaitSelfRevokesToFat: Wait on a reserved object must self-revoke
// straight to a fat lock carrying the reservation's depth. Not
// parallel: telemetry is process-global.
func TestWaitSelfRevokesToFat(t *testing.T) {
	tel := telemetry.Enable(telemetry.New())
	defer telemetry.Disable()
	w := newWorld(t, Options{})
	a := w.thread(t, "a")
	o := w.heap.New("obj")

	w.l.Lock(a, o)
	w.l.Lock(a, o)
	notified, err := w.l.Wait(a, o, 2*time.Millisecond)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if notified {
		t.Fatal("notified = true on a timeout")
	}
	if !w.l.Inflated(o) {
		t.Fatal("Wait on a reservation did not inflate")
	}
	if rev, infl := tel.Counter(telemetry.CtrBiasRevocationsWait), w.l.Stats().InflationsWait; rev != 1 || infl != 1 {
		t.Fatalf("bias_revocations_wait = %d, InflationsWait = %d, want 1/1", rev, infl)
	}
	for i := 0; i < 2; i++ {
		if err := w.l.Unlock(a, o); err != nil {
			t.Fatalf("unlock %d: %v", i, err)
		}
	}
	if err := w.l.Unlock(a, o); err != ErrIllegalMonitorState {
		t.Fatalf("extra unlock err = %v, want ErrIllegalMonitorState", err)
	}
}

// TestOverflowSelfRevokesToFat: recursion past the biased depth cap
// (128) self-revokes to a fat lock; the full depth must unwind exactly.
// Not parallel: telemetry is process-global.
func TestOverflowSelfRevokesToFat(t *testing.T) {
	tel := telemetry.Enable(telemetry.New())
	defer telemetry.Disable()
	w := newWorld(t, Options{})
	a := w.thread(t, "a")
	o := w.heap.New("obj")

	const depth = maxBiasDepth + 1 // one past the cap
	for i := 0; i < depth; i++ {
		w.l.Lock(a, o)
	}
	if !w.l.Inflated(o) {
		t.Fatal("recursion past the bias depth cap did not inflate")
	}
	if rev, infl := tel.Counter(telemetry.CtrBiasRevocationsOverflow), w.l.Stats().InflationsOverflow; rev != 1 || infl != 1 {
		t.Fatalf("bias_revocations_overflow = %d, InflationsOverflow = %d, want 1/1", rev, infl)
	}
	for i := 0; i < depth; i++ {
		if err := w.l.Unlock(a, o); err != nil {
			t.Fatalf("unlock %d: %v", i, err)
		}
	}
	if err := w.l.Unlock(a, o); err != ErrIllegalMonitorState {
		t.Fatalf("extra unlock err = %v, want ErrIllegalMonitorState", err)
	}
}

// TestBulkRebiasTransfersStaleReservation: after a class-epoch bump, an
// unheld reservation stamped with the old epoch is transferred to the
// contender (one CAS) instead of being revoked to a thin word. Not
// parallel: telemetry is process-global.
func TestBulkRebiasTransfersStaleReservation(t *testing.T) {
	tel := telemetry.Enable(telemetry.New())
	defer telemetry.Disable()
	w := newWorld(t, Options{RebiasThreshold: 1})
	a, b := w.thread(t, "a"), w.thread(t, "b")
	churn, target := w.heap.New("cls"), w.heap.New("cls")

	// Reserve the target first so it is stamped with epoch 0.
	w.l.Lock(a, target)
	if err := w.l.Unlock(a, target); err != nil {
		t.Fatal(err)
	}
	// One revocation on the class bumps the epoch (threshold 1),
	// making the target's reservation stale.
	w.l.Lock(a, churn)
	if err := w.l.Unlock(a, churn); err != nil {
		t.Fatal(err)
	}
	w.l.Lock(b, churn)
	if err := w.l.Unlock(b, churn); err != nil {
		t.Fatal(err)
	}
	if got := tel.Counter(telemetry.CtrBulkRebiases); got != 1 {
		t.Fatalf("bulk_rebiases = %d after the threshold revocation, want 1", got)
	}
	// The contender now finds a stale, unheld reservation: transfer.
	w.l.Lock(b, target)
	if !w.l.Biased(target) {
		t.Fatal("stale reservation was revoked instead of transferred")
	}
	if err := w.l.Unlock(b, target); err != nil {
		t.Fatal(err)
	}
	if got := tel.Counter(telemetry.CtrBiasTransfers); got != 1 {
		t.Fatalf("bias_transfers = %d, want 1", got)
	}
	// The new reservation must serve its owner's fast path.
	w.l.Lock(b, target)
	if err := w.l.Unlock(b, target); err != nil {
		t.Fatal(err)
	}
	// And the original owner must still be able to lock (revoking b's
	// current-epoch reservation conventionally).
	w.l.Lock(a, target)
	if err := w.l.Unlock(a, target); err != nil {
		t.Fatal(err)
	}
}

// TestBulkRevokeDisablesClass: past the revoke threshold the class is
// declared unbiasable and new objects of that class go straight to thin
// words. Not parallel: telemetry is process-global.
func TestBulkRevokeDisablesClass(t *testing.T) {
	tel := telemetry.Enable(telemetry.New())
	defer telemetry.Disable()
	w := newWorld(t, Options{DisableRebias: true, RevokeThreshold: 2})
	a, b := w.thread(t, "a"), w.thread(t, "b")

	for i := 0; i < 2; i++ {
		o := w.heap.New("hot")
		w.l.Lock(a, o)
		if err := w.l.Unlock(a, o); err != nil {
			t.Fatal(err)
		}
		w.l.Lock(b, o)
		if err := w.l.Unlock(b, o); err != nil {
			t.Fatal(err)
		}
	}
	if got := tel.Counter(telemetry.CtrBulkRevokes); got != 1 {
		t.Fatalf("bulk_revokes = %d after %d revocations, want 1",
			got, tel.Counter(telemetry.CtrBiasRevocationsContention))
	}
	fresh := w.heap.New("hot")
	w.l.Lock(a, fresh)
	if w.l.Biased(fresh) {
		t.Fatal("unbiasable class still installed a reservation")
	}
	if err := w.l.Unlock(a, fresh); err != nil {
		t.Fatal(err)
	}
	// An unrelated class is unaffected.
	other := w.heap.New("cold")
	w.l.Lock(a, other)
	if !w.l.Biased(other) {
		t.Fatal("bulk revoke of one class leaked into another")
	}
	if err := w.l.Unlock(a, other); err != nil {
		t.Fatal(err)
	}
}

// TestDisableBiasDegeneratesToThin: with bias off the implementation is
// a plain thin lock and never reserves anything. Not parallel:
// telemetry is process-global.
func TestDisableBiasDegeneratesToThin(t *testing.T) {
	tel := telemetry.Enable(telemetry.New())
	defer telemetry.Disable()
	w := newWorld(t, Options{DisableBias: true})
	a := w.thread(t, "a")
	o := w.heap.New("obj")

	w.l.Lock(a, o)
	if w.l.Biased(o) {
		t.Fatal("reservation installed with DisableBias")
	}
	if hi := w.l.HolderIndex(o); hi != a.Index() {
		t.Fatalf("HolderIndex = %d, want %d", hi, a.Index())
	}
	if err := w.l.Unlock(a, o); err != nil {
		t.Fatal(err)
	}
	if got := tel.Counter(telemetry.CtrBiasInstalls); got != 0 {
		t.Fatalf("bias_installs = %d with DisableBias", got)
	}
}

// revocations sums tel's bias revocation counters over every cause.
func revocations(tel *telemetry.Telemetry) uint64 {
	return tel.Counter(telemetry.CtrBiasRevocationsContention) +
		tel.Counter(telemetry.CtrBiasRevocationsWait) +
		tel.Counter(telemetry.CtrBiasRevocationsOverflow)
}

// TestNames pins the Name values the registries and reports key on.
func TestNames(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		opts Options
		want string
	}{
		{Options{}, "Biased"},
		{Options{DisableRebias: true}, "Biased-norebias"},
		{Options{DisableBias: true}, "Biased-off"},
	} {
		if got := New(tc.opts).Name(); got != tc.want {
			t.Errorf("Name(%+v) = %q, want %q", tc.opts, got, tc.want)
		}
	}
}

// TestTelemetryCountsBiasEvents: with telemetry enabled the biased
// acquire and revocation counters must come out nonzero for a workload
// that exercises them. Not parallel: telemetry is process-global.
func TestTelemetryCountsBiasEvents(t *testing.T) {
	tel := telemetry.Enable(telemetry.New())
	defer telemetry.Disable()
	w := newWorld(t, Options{DisableRebias: true})
	a, b := w.thread(t, "a"), w.thread(t, "b")
	o := w.heap.New("obj")

	w.l.Lock(a, o)
	for i := 0; i < 9; i++ {
		if err := w.l.Unlock(a, o); err != nil {
			t.Fatal(err)
		}
		w.l.Lock(a, o)
	}
	if err := w.l.Unlock(a, o); err != nil {
		t.Fatal(err)
	}
	w.l.Lock(b, o)
	if err := w.l.Unlock(b, o); err != nil {
		t.Fatal(err)
	}

	if got := tel.Counter(telemetry.CtrBiasInstalls); got != 1 {
		t.Errorf("bias_installs = %d, want 1", got)
	}
	if got := tel.Counter(telemetry.CtrBiasedAcquires); got != 9 {
		t.Errorf("biased_acquires = %d, want 9", got)
	}
	if got := tel.Counter(telemetry.CtrBiasRevocationsContention); got != 1 {
		t.Errorf("bias_revocations_contention = %d, want 1", got)
	}
}
