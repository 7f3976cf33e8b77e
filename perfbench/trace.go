package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"thinlock/internal/lockapi"
	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// spanName identifies a layer boundary the traced run times. Names carry
// their layer as a prefix ("core.", "monitor.", "jcl.", "vm."), which is
// how per-layer metrics group them.
type spanName uint8

const (
	spReq spanName = iota
	spLock
	spUnlock
	spWait
	spNotify
	spNotifyAll
	spVMRun
	spBitSetGet
	spBitSetSet
	spHashtableGet
	spHashtablePut
	spVectorAdd
	spVectorSize
	spVectorClear
	spVectorElementAt
	spBufferSetLength
	spBufferAppend
	spBufferAppendChar
	spBufferAppendInt
	spBufferString
	spStackPush
	spStackPop
	spStackEmpty
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spReq:              "bench.request",
	spLock:             "core.Lock",
	spUnlock:           "core.Unlock",
	spWait:             "monitor.Wait",
	spNotify:           "monitor.Notify",
	spNotifyAll:        "monitor.NotifyAll",
	spVMRun:            "vm.Run",
	spBitSetGet:        "jcl.BitSet.Get",
	spBitSetSet:        "jcl.BitSet.Set",
	spHashtableGet:     "jcl.Hashtable.Get",
	spHashtablePut:     "jcl.Hashtable.Put",
	spVectorAdd:        "jcl.Vector.AddElement",
	spVectorSize:       "jcl.Vector.Size",
	spVectorClear:      "jcl.Vector.RemoveAllElements",
	spVectorElementAt:  "jcl.Vector.ElementAt",
	spBufferSetLength:  "jcl.StringBuffer.SetLength",
	spBufferAppend:     "jcl.StringBuffer.Append",
	spBufferAppendChar: "jcl.StringBuffer.AppendChar",
	spBufferAppendInt:  "jcl.StringBuffer.AppendInt",
	spBufferString:     "jcl.StringBuffer.String",
	spStackPush:        "jcl.Stack.Push",
	spStackPop:         "jcl.Stack.Pop",
	spStackEmpty:       "jcl.Stack.Empty",
}

func (n spanName) String() string { return spanNames[n] }

func (n spanName) layer() string {
	s := n.String()
	return s[:strings.IndexByte(s, '.')]
}

// span is one timed call across a layer boundary. parent indexes the
// enclosing span in the same thread's span list (-1 for a request root);
// req is the id of the request the span belongs to.
type span struct {
	start, end int64
	req        int64
	parent     int32
	name       spanName
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its direct children cover. Children are clipped to the
// parent's interval and overlapping children are merged, so a self time
// is never negative and never exceeds the span's duration.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = max(0, s.end-s.start)
	}
	kids := make([]int32, 0, len(spans))
	for i, s := range spans {
		if s.parent >= 0 && int(s.parent) < len(spans) && int(s.parent) != i {
			kids = append(kids, int32(i))
		}
	}
	slices.SortFunc(kids, func(a, b int32) int {
		if c := cmp.Compare(spans[a].parent, spans[b].parent); c != 0 {
			return c
		}
		return cmp.Compare(spans[a].start, spans[b].start)
	})
	for i := 0; i < len(kids); {
		p := spans[kids[i]].parent
		lo, hi := spans[p].start, spans[p].end
		var covered int64
		curEnd := lo // merged coverage so far ends here
		for ; i < len(kids) && spans[kids[i]].parent == p; i++ {
			c := spans[kids[i]]
			s, e := max(c.start, curEnd), min(c.end, hi)
			if e > s {
				covered += e - s
				curEnd = e
			}
		}
		self[p] = max(0, self[p]-covered)
	}
	return self
}

// threadTrace is one benchmark thread's trace state. Only its own thread
// writes it; the harness reads it after the thread has been joined. All
// methods are no-ops on a nil receiver, which is what untraced epochs
// pass around, so the request code is the same in both kinds of epoch.
type threadTrace struct {
	sampleEvery int
	nreq        int
	sampled     bool
	req         int64
	open        []int32
	spans       []span
	held        []*object.Object

	lockCalls   uint64
	nestedLocks uint64
	depths      [4]uint64 // lock calls at nesting depth 1, 2, 3, 4+
	sampledReqs uint64
}

// beginRequest starts request id; every sampleEvery-th request of the
// thread is sampled and gets a root span.
func (tt *threadTrace) beginRequest(id int64) int32 {
	if tt == nil {
		return -1
	}
	tt.sampled = tt.nreq%tt.sampleEvery == 0
	tt.nreq++
	tt.req = id
	if tt.sampled {
		tt.sampledReqs++
	}
	return tt.begin(spReq)
}

func (tt *threadTrace) endRequest(root int32) {
	if tt == nil {
		return
	}
	tt.end(root)
	tt.sampled = false
}

// begin opens a span under the innermost open one, if the current
// request is sampled; it returns the handle end needs (-1 if not).
func (tt *threadTrace) begin(n spanName) int32 {
	if tt == nil || !tt.sampled {
		return -1
	}
	parent := int32(-1)
	if k := len(tt.open); k > 0 {
		parent = tt.open[k-1]
	}
	i := int32(len(tt.spans))
	tt.spans = append(tt.spans, span{req: tt.req, parent: parent, name: n})
	tt.open = append(tt.open, i)
	// Read the clock last, so the span's own bookkeeping (a slice that
	// grows) stays outside its interval.
	tt.spans[i].start = nanotime()
	return i
}

func (tt *threadTrace) end(i int32) {
	if i < 0 {
		return
	}
	tt.spans[i].end = nanotime()
	tt.open = tt.open[:len(tt.open)-1]
}

// noteLock records a lock call and its nesting depth on o.
func (tt *threadTrace) noteLock(o *object.Object) {
	depth := 1
	for _, h := range tt.held {
		if h == o {
			depth++
		}
	}
	tt.held = append(tt.held, o)
	tt.lockCalls++
	if depth > 1 {
		tt.nestedLocks++
	}
	tt.depths[min(depth, len(tt.depths))-1]++
}

// noteUnlock forgets the innermost hold of o.
func (tt *threadTrace) noteUnlock(o *object.Object) {
	for i := len(tt.held) - 1; i >= 0; i-- {
		if tt.held[i] == o {
			tt.held = slices.Delete(tt.held, i, i+1)
			return
		}
	}
}

// maxTraceThreads bounds the thread indices a traced epoch may use; each
// epoch has its own registry, so indices stay small.
const maxTraceThreads = 16

// timingLocker is the traced run's lockapi.Locker: it forwards to the
// default lock, counts every call with its nesting depth, and records a
// span around each call made by a sampled request.
type timingLocker struct {
	inner   lockapi.Locker
	threads [maxTraceThreads]*threadTrace
}

func newTimingLocker(inner lockapi.Locker, sampleEvery int) *timingLocker {
	l := &timingLocker{inner: inner}
	for i := range l.threads {
		l.threads[i] = &threadTrace{sampleEvery: max(1, sampleEvery)}
	}
	return l
}

func (l *timingLocker) thread(t *threading.Thread) *threadTrace {
	i := int(t.Index())
	if i >= maxTraceThreads {
		panic(fmt.Sprintf("perfbench: thread index %d beyond the trace table", i))
	}
	return l.threads[i]
}

func (l *timingLocker) Lock(t *threading.Thread, o *object.Object) {
	tt := l.thread(t)
	tt.noteLock(o)
	s := tt.begin(spLock)
	l.inner.Lock(t, o)
	tt.end(s)
}

func (l *timingLocker) Unlock(t *threading.Thread, o *object.Object) error {
	tt := l.thread(t)
	s := tt.begin(spUnlock)
	err := l.inner.Unlock(t, o)
	tt.end(s)
	if err == nil {
		tt.noteUnlock(o)
	}
	return err
}

func (l *timingLocker) Wait(t *threading.Thread, o *object.Object, d time.Duration) (bool, error) {
	tt := l.thread(t)
	s := tt.begin(spWait)
	ok, err := l.inner.Wait(t, o, d)
	tt.end(s)
	return ok, err
}

func (l *timingLocker) Notify(t *threading.Thread, o *object.Object) error {
	tt := l.thread(t)
	s := tt.begin(spNotify)
	err := l.inner.Notify(t, o)
	tt.end(s)
	return err
}

func (l *timingLocker) NotifyAll(t *threading.Thread, o *object.Object) error {
	tt := l.thread(t)
	s := tt.begin(spNotifyAll)
	err := l.inner.NotifyAll(t, o)
	tt.end(s)
	return err
}

func (l *timingLocker) Name() string { return l.inner.Name() + "+timing" }

// callCounts sums the per-thread call counters.
type callCounts struct {
	lockCalls, nestedLocks, sampledReqs uint64
	depths                              [4]uint64
}

func (l *timingLocker) counts() callCounts {
	var c callCounts
	for _, tt := range l.threads {
		c.lockCalls += tt.lockCalls
		c.nestedLocks += tt.nestedLocks
		c.sampledReqs += tt.sampledReqs
		for i, n := range tt.depths {
			c.depths[i] += n
		}
	}
	return c
}

func (c callCounts) minus(o callCounts) callCounts {
	c.lockCalls -= o.lockCalls
	c.nestedLocks -= o.nestedLocks
	c.sampledReqs -= o.sampledReqs
	for i := range c.depths {
		c.depths[i] -= o.depths[i]
	}
	return c
}

// spanStats aggregates the spans of every traced epoch by name.
type spanStats struct {
	count   [numSpanNames]uint64
	durSum  [numSpanNames]int64
	selfSum [numSpanNames]int64
	lockDur []int64 // every sampled Lock span's duration, for its p99

	kept    []span // the first maxKeptSpans spans, written to the span file
	keptTid []uint16
}

// maxKeptSpans bounds the span file.
const maxKeptSpans = 50000

// collect folds every thread's spans into s and clears them.
func (s *spanStats) collect(l *timingLocker) {
	for tid, tt := range l.threads {
		self := selfTimes(tt.spans)
		for i, sp := range tt.spans {
			d := max(0, sp.end-sp.start)
			s.count[sp.name]++
			s.durSum[sp.name] += d
			s.selfSum[sp.name] += self[i]
			if sp.name == spLock {
				s.lockDur = append(s.lockDur, d)
			}
		}
		if room := maxKeptSpans - len(s.kept); room > 0 {
			// A parent always opens before its children, so a prefix
			// keeps every kept span's parent; rebase parents onto the
			// file's line numbers.
			base := int32(len(s.kept))
			for _, sp := range tt.spans[:min(room, len(tt.spans))] {
				if sp.parent >= 0 {
					sp.parent += base
				}
				s.kept = append(s.kept, sp)
				s.keptTid = append(s.keptTid, uint16(tid))
			}
		}
		tt.spans = tt.spans[:0]
	}
}

// meanDur returns the mean duration in ns of the spans named by names.
func (s *spanStats) meanDur(names ...spanName) float64 {
	var n uint64
	var d int64
	for _, name := range names {
		n += s.count[name]
		d += s.durSum[name]
	}
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}

// layerSelf returns the span count and mean self time in ns of a layer.
func (s *spanStats) layerSelf(layer string) (uint64, float64) {
	var n uint64
	var d int64
	for name := spanName(0); name < numSpanNames; name++ {
		if name.layer() == layer {
			n += s.count[name]
			d += s.selfSum[name]
		}
	}
	if n == 0 {
		return 0, 0
	}
	return n, float64(d) / float64(n)
}

// writeSpans writes the kept spans as JSON lines: id (the line number
// from 0), name, thread, request id, parent (the parent's id, -1 for a
// request root), start and end in ns since process start.
func (s *spanStats) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, sp := range s.kept {
		rec := struct {
			ID     int    `json:"id"`
			Name   string `json:"name"`
			Thread uint16 `json:"thread"`
			Req    int64  `json:"req"`
			Parent int32  `json:"parent"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{i, sp.name.String(), s.keptTid[i], sp.req, sp.parent, sp.start, sp.end}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
