package lockprof_test

import (
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"

	"thinlock/internal/biased"
	"thinlock/internal/core"
	"thinlock/internal/lockprof"
	"thinlock/internal/object"
	"thinlock/internal/telemetry"
	"thinlock/internal/testutil"
	"thinlock/internal/threading"
)

// newProfiledFixture installs a fresh every-entry profiler and returns
// a thin-lock fixture. Tests using it must not be parallel (global
// profiler registration).
func newProfiledFixture(t testing.TB) (*lockprof.Profiler, *lockFixture) {
	t.Helper()
	p := lockprof.Enable(lockprof.New(lockprof.Config{SampleEvery: 1}))
	t.Cleanup(lockprof.Disable)
	return p, newLockFixture(t)
}

func TestNestedSlowPathIsAttributed(t *testing.T) {
	p, f := newProfiledFixture(t)
	for i := 0; i < 10; i++ {
		f.l.Lock(f.th, f.o)
		f.l.Lock(f.th, f.o) // nested: slow path, sampled
		f.l.Unlock(f.th, f.o)
		f.l.Unlock(f.th, f.o)
	}
	snap := p.Snapshot()
	if len(snap.Sites) == 0 {
		t.Fatal("no sites recorded")
	}
	site := snap.Sites[0]
	if site.SlowEntries != 10 {
		t.Errorf("slow entries = %d, want 10", site.SlowEntries)
	}
	if site.Kind != "go" {
		t.Errorf("kind = %q, want go", site.Kind)
	}
	// The display label must land on this test, not lock machinery.
	if !strings.Contains(site.Label, "lockprof_test") && !strings.Contains(site.Label, "TestNestedSlowPath") {
		t.Errorf("label %q does not name the workload frame", site.Label)
	}
	if len(snap.Objects) != 1 || snap.Objects[0].SlowEntries != 10 {
		t.Fatalf("objects = %+v, want one with 10 slow entries", snap.Objects)
	}
	if snap.Objects[0].Class != "Object" {
		t.Errorf("object class = %q, want Object", snap.Objects[0].Class)
	}
}

func TestVMSiteAttribution(t *testing.T) {
	p, f := newProfiledFixture(t)
	f.th.PublishFrame("Demo.transfer", 17)
	f.l.Lock(f.th, f.o)
	f.l.Lock(f.th, f.o)
	f.l.Unlock(f.th, f.o)
	f.l.Unlock(f.th, f.o)
	f.th.ClearFrame()
	snap := p.Snapshot()
	if len(snap.Sites) != 1 {
		t.Fatalf("sites = %d, want 1", len(snap.Sites))
	}
	s := snap.Sites[0]
	if s.Kind != "vm" || s.Label != "Demo.transfer@17" {
		t.Errorf("site = %s/%s, want vm/Demo.transfer@17", s.Kind, s.Label)
	}
	if len(s.Frames) != 1 || s.Frames[0].File != "<minijava>" || s.Frames[0].Line != 17 {
		t.Errorf("frames = %+v, want one synthetic <minijava>:17 frame", s.Frames)
	}
}

func TestSyncMethodPrologueLabel(t *testing.T) {
	p, f := newProfiledFixture(t)
	f.th.PublishFrame("Demo.sync", -1)
	f.l.Lock(f.th, f.o)
	f.l.Lock(f.th, f.o)
	f.l.Unlock(f.th, f.o)
	f.l.Unlock(f.th, f.o)
	f.th.ClearFrame()
	snap := p.Snapshot()
	if len(snap.Sites) != 1 || snap.Sites[0].Label != "Demo.sync@sync-entry" {
		t.Fatalf("sites = %+v, want one Demo.sync@sync-entry", snap.Sites)
	}
}

// TestInflationCausesRecorded drives the wait-inflation path (the one
// cause reachable deterministically from a single thread) and checks
// per-cause accounting.
func TestInflationCausesRecorded(t *testing.T) {
	p, f := newProfiledFixture(t)
	f.l.Lock(f.th, f.o)
	// Notify wakes nobody; Wait with a timeout inflates first.
	if _, err := f.l.Wait(f.th, f.o, 1); err != nil {
		t.Fatal(err)
	}
	f.l.Unlock(f.th, f.o)
	snap := p.Snapshot()
	var total uint64
	for _, s := range snap.Sites {
		total += s.Inflations["wait"]
	}
	if total != 1 {
		t.Fatalf("wait inflations = %d, want 1 (sites: %+v)", total, snap.Sites)
	}
	if len(snap.Objects) == 0 || snap.Objects[0].Inflations != 1 {
		t.Fatalf("object inflations = %+v, want 1", snap.Objects)
	}
}

// TestContendedSitesDistinct checks the acceptance shape: two
// goroutines contending through two distinct call sites yield two
// distinct site records with contention evidence (park time or
// inflations).
func TestContendedSitesDistinct(t *testing.T) {
	p, _ := newProfiledFixture(t)
	l := core.NewDefault()
	heap := object.NewHeap()
	o := heap.New("Shared")
	reg := threading.NewRegistry()

	var wg sync.WaitGroup
	hammer := func(name string, body func(*threading.Thread)) {
		wg.Add(1)
		done, err := reg.Go(name, func(th *threading.Thread) {
			defer wg.Done()
			body(th)
		})
		if err != nil {
			t.Fatal(err)
		}
		_ = done
	}
	// Two textually distinct acquisition sites; the nested lock
	// guarantees slow-path entries even if the goroutines never overlap.
	hammer("a", func(th *threading.Thread) {
		for i := 0; i < 3000; i++ {
			l.Lock(th, o)
			l.Lock(th, o)
			l.Unlock(th, o)
			l.Unlock(th, o)
		}
	})
	hammer("b", func(th *threading.Thread) {
		for i := 0; i < 3000; i++ {
			l.Lock(th, o)
			l.Lock(th, o)
			l.Unlock(th, o)
			l.Unlock(th, o)
		}
	})
	wg.Wait()

	snap := p.Snapshot()
	contended := 0
	for _, s := range snap.Sites {
		if s.SlowEntries > 0 {
			contended++
		}
	}
	if contended < 1 {
		t.Fatalf("no contended sites recorded; sites = %+v", snap.Sites)
	}
	// Contention is scheduler-dependent on one CPU; require the
	// distinct-sites property only when both sites actually went slow.
	if len(snap.Sites) >= 2 && snap.Sites[0].Label == snap.Sites[1].Label {
		t.Errorf("distinct call sites collapsed: %q", snap.Sites[0].Label)
	}
}

func TestSnapshotPrometheusEscapesAndTypes(t *testing.T) {
	p, f := newProfiledFixture(t)
	// A hostile site label: a VM method name carrying every character
	// the exposition format requires escaped.
	f.th.PublishFrame("Bad\\Class.\"m\"\nethod", 3)
	f.l.Lock(f.th, f.o)
	f.l.Lock(f.th, f.o)
	f.l.Unlock(f.th, f.o)
	f.l.Unlock(f.th, f.o)
	f.th.ClearFrame()
	var b strings.Builder
	if err := p.Snapshot().WritePrometheus(&b, 0); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE thinlock_lockprof_slow_entries_total counter",
		"# TYPE thinlock_lockprof_delay_ns_total counter",
		"# TYPE thinlock_lockprof_sites gauge",
		`site="Bad\\Class.\"m\"\nethod@3"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n%s", want, out)
		}
	}
	if strings.Contains(out, "\"m\"\ne") {
		t.Error("raw quote or newline leaked into a label value")
	}
}

func TestSnapshotPrometheusMultiByteLabels(t *testing.T) {
	p, f := newProfiledFixture(t)
	// Multi-byte method names (2-, 3- and 4-byte UTF-8) wrapped around a
	// backslash: the byte-wise escaper must rewrite only the backslash
	// and leave every rune intact — mojibake here would corrupt the
	// whole exposition for scrapers that validate UTF-8.
	f.th.PublishFrame("Bank口座.転送\\é🔒", 7)
	f.l.Lock(f.th, f.o)
	f.l.Lock(f.th, f.o)
	f.l.Unlock(f.th, f.o)
	f.l.Unlock(f.th, f.o)
	f.th.ClearFrame()
	var b strings.Builder
	if err := p.Snapshot().WritePrometheus(&b, 0); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if want := `site="Bank口座.転送\\é🔒@7"`; !strings.Contains(out, want) {
		t.Errorf("prometheus output missing %q\n%s", want, out)
	}
	if !utf8.ValidString(out) {
		t.Error("exposition output is not valid UTF-8")
	}
}

func TestServerEndpoints(t *testing.T) {
	p, f := newProfiledFixture(t)
	m := telemetry.Enable(telemetry.New())
	defer telemetry.Disable()
	_ = m
	f.l.Lock(f.th, f.o)
	f.l.Lock(f.th, f.o)
	f.l.Unlock(f.th, f.o)
	f.l.Unlock(f.th, f.o)
	_ = p

	srv := httptest.NewServer(lockprof.Handler())
	defer srv.Close()
	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	if code, body, _ := get("/metrics"); code != 200 ||
		!strings.Contains(body, "thinlock_slow_path_entries_total") ||
		!strings.Contains(body, "thinlock_lockprof_slow_entries_total") {
		t.Errorf("/metrics = %d, missing telemetry or lockprof series", code)
	}
	if code, body, ct := get("/debug/vars"); code != 200 ||
		!strings.Contains(body, `"telemetry"`) || !strings.Contains(body, `"lockprof"`) ||
		!strings.Contains(ct, "application/json") {
		t.Errorf("/debug/vars = %d (%s), want merged JSON", code, ct)
	}
	if code, body, _ := get("/debug/lockprof/top"); code != 200 ||
		!strings.Contains(body, "Top") || !strings.Contains(body, "SITE") {
		t.Errorf("/debug/lockprof/top = %d, want report", code)
	}
	if code, body, _ := get("/debug/pprof/lockcontention"); code != 200 ||
		len(body) < 2 || body[0] != 0x1f || body[1] != 0x8b {
		t.Errorf("/debug/pprof/lockcontention = %d, want gzip payload", code)
	}
	if code, _, _ := get("/nope"); code != 404 {
		t.Errorf("unknown path = %d, want 404", code)
	}

	lockprof.Disable()
	telemetry.Disable()
	for _, path := range []string{"/metrics", "/debug/vars", "/debug/lockprof/top", "/debug/pprof/lockcontention"} {
		if code, _, _ := get(path); code != 503 {
			t.Errorf("%s with everything disabled = %d, want 503", path, code)
		}
	}
}

// TestTableBoundsDropNotGrow floods the object table past its capacity
// and checks the profiler degrades by counting drops instead of
// growing.
func TestTableBoundsDropNotGrow(t *testing.T) {
	p, f := newProfiledFixture(t)
	for i := 0; i < 20000; i++ {
		o := f.heap.New("Flood")
		f.l.Lock(f.th, o)
		f.l.Lock(f.th, o)
		f.l.Unlock(f.th, o)
		f.l.Unlock(f.th, o)
	}
	snap := p.Snapshot()
	if len(snap.Objects) > 16*512 {
		t.Errorf("object table grew to %d records, bound is %d", len(snap.Objects), 16*512)
	}
	if snap.ObjectDrops == 0 {
		t.Error("flooding 20000 objects dropped nothing; bound not enforced?")
	}
}

// TestConcurrentHooksAreRaceFree hammers every hook from several
// threads; meaningful chiefly under -race.
func TestConcurrentHooksAreRaceFree(t *testing.T) {
	p, _ := newProfiledFixture(t)
	l := core.NewDefault()
	heap := object.NewHeap()
	objs := []*object.Object{heap.New("A"), heap.New("B")}
	reg := threading.NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		if _, err := reg.Go("g", func(th *threading.Thread) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				o := objs[i%len(objs)]
				l.Lock(th, o)
				l.Lock(th, o)
				l.Unlock(th, o)
				l.Unlock(th, o)
				if i%512 == 0 {
					_ = p.Snapshot()
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	snap := p.Snapshot()
	if len(snap.Sites) == 0 {
		t.Fatal("no sites after concurrent hammering")
	}
}

// TestBiasedContentionLabelledAtCaller: a contended acquisition of a
// biased lock revokes the reservation inside internal/biased; the
// profiled sites must still be labelled at the workload frame that
// asked for the lock, not at lock machinery.
func TestBiasedContentionLabelledAtCaller(t *testing.T) {
	p := lockprof.Enable(lockprof.New(lockprof.Config{SampleEvery: 1}))
	defer lockprof.Disable()
	l := biased.New(biased.Options{})
	reg := threading.NewRegistry()
	owner, err := reg.Attach("owner")
	if err != nil {
		t.Fatal(err)
	}
	contender, err := reg.Attach("contender")
	if err != nil {
		t.Fatal(err)
	}
	o := object.NewHeap().New("Object")

	l.Lock(owner, o) // reserves o for owner, held
	done := make(chan error)
	go func() {
		l.Lock(contender, o) // revokes owner's reservation, then waits
		done <- l.Unlock(contender, o)
	}()
	testutil.Eventually(t, 0, "contender revokes the reservation", func() bool {
		return o.Flags()&biased.FlagBiasDead != 0
	})
	if err := l.Unlock(owner, o); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	var revoked bool
	for _, s := range p.Snapshot().Sites {
		if strings.Contains(s.Label, "internal/biased") {
			t.Errorf("site labelled at lock machinery: %q", s.Label)
		}
		if s.RevocationTotal() > 0 {
			revoked = true
			if !strings.Contains(s.Label, "TestBiasedContentionLabelledAtCaller") {
				t.Errorf("revocation site %q is not the contending caller", s.Label)
			}
		}
	}
	if !revoked {
		t.Fatal("no site recorded the revocation (test measured the wrong path)")
	}
}
