// Package threading provides the thread substrate thin locks depend on.
//
// The paper's algorithm identifies lock owners by a 15-bit *thread index*
// into a table that maps indices to thread structures (§2.3). The index is
// stored pre-shifted by 16 bits in the thread's execution environment so
// the locking fast path needs no extra ALU operation. This package
// reproduces that machinery on top of goroutines: a Thread is an explicit
// handle (the analogue of the JVM execution-environment pointer) that the
// caller threads through lock operations, and a Registry hands out and
// recycles the 15-bit indices.
//
// Blocking is built on one reusable wait record per thread (WaitRecord):
// a thread blocks in at most one place at a time, so the record a lock
// queues — the lock count to restore, the queue state and the thread's
// Parker, a channel-based binary semaphore standing in for the goroutine
// park/unpark primitive Go does not expose — is allocated once, with the
// Thread, rather than per block.
package threading

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// IndexBits is the width of a thread index in the lock word.
const IndexBits = 15

// MaxThreads is the number of simultaneously attached threads a Registry
// supports. Index 0 is reserved to mean "unlocked", leaving 2^15-1 usable
// indices.
const MaxThreads = 1<<IndexBits - 1

// IndexShift is how far the thread index is shifted within the lock word.
const IndexShift = 16

// ErrTooManyThreads is returned by Attach when all 2^15-1 indices are in
// use.
var ErrTooManyThreads = errors.New("threading: thread index space exhausted")

// ErrInterrupted is returned from blocking operations when the thread's
// interrupt status was set.
var ErrInterrupted = errors.New("threading: interrupted")

// Thread is the per-thread execution environment. All lock operations
// take the acting Thread explicitly; a Thread must only ever be used by
// the goroutine it was attached for.
type Thread struct {
	// shifted is the thread index pre-shifted by IndexShift, exactly as
	// the paper stores it, so the lock fast path ORs it in directly.
	shifted uint32

	name        string
	proc        uint32 // see ProcIndex
	registry    *Registry
	wait        WaitRecord
	interrupted atomic.Bool

	// frameMethod/framePC are the interpreter's currently executing
	// method and bytecode pc, published by internal/vm around lock
	// operations so the contention profiler can attribute a slow-path
	// acquisition to its bytecode site. Only the owning goroutine reads
	// or writes them (the same single-goroutine discipline as the rest
	// of the Thread), so plain fields suffice.
	frameMethod string
	framePC     int32
	frameSet    bool

	// biasSlots holds the thread's lock reservations (see bias.go).
	// Written only by the owning goroutine; read by revoking threads.
	biasSlots [BiasSlots]BiasSlot
}

// Index returns the thread's 15-bit index (1..MaxThreads). It is 0 only
// for a zero Thread that was never attached.
func (t *Thread) Index() uint16 { return uint16(t.shifted >> IndexShift) }

// Shifted returns the pre-shifted index, ready to be ORed into a lock
// word.
func (t *Thread) Shifted() uint32 { return t.shifted }

// ProcIndex returns a number no other thread attached in the process,
// in any registry, has at the same time (reused after Detach). Thread
// indices are per registry, so threads of concurrently live registries
// share them; per-thread observer state (lockdep's held stacks,
// lockprof's attribution slots) is keyed by this number instead. A nil
// thread has ProcIndex 0, which no attached thread has.
func (t *Thread) ProcIndex() uint32 {
	if t == nil {
		return 0
	}
	return t.proc
}

// procIndices hands out ProcIndex numbers from 1, recycling released
// ones LIFO.
var procIndices struct {
	mu   sync.Mutex
	free []uint32
	next uint32
}

func takeProcIndex() uint32 {
	procIndices.mu.Lock()
	defer procIndices.mu.Unlock()
	if n := len(procIndices.free); n > 0 {
		p := procIndices.free[n-1]
		procIndices.free = procIndices.free[:n-1]
		return p
	}
	procIndices.next++
	return procIndices.next
}

func releaseProcIndex(p uint32) {
	procIndices.mu.Lock()
	procIndices.free = append(procIndices.free, p)
	procIndices.mu.Unlock()
}

// Name returns the name given at Attach time.
func (t *Thread) Name() string { return t.name }

// Registry returns the registry the thread is attached to, so code
// holding only a thread (e.g. a workload body) can attach helpers.
func (t *Thread) Registry() *Registry { return t.registry }

// String implements fmt.Stringer.
func (t *Thread) String() string {
	return fmt.Sprintf("thread(%s#%d)", t.name, t.Index())
}

// Parker returns the thread's parking semaphore.
func (t *Thread) Parker() *Parker { return &t.wait.Parker }

// WaitRecord returns the thread's wait record.
func (t *Thread) WaitRecord() *WaitRecord { return &t.wait }

// Interrupt sets the thread's interrupt status and unparks it. Every
// park re-checks its own condition on waking, so the wake ends only an
// interruptible block (a monitor wait); a thread blocked entering a
// lock parks again.
func (t *Thread) Interrupt() {
	t.interrupted.Store(true)
	t.wait.Unpark()
}

// Interrupted reports and clears the thread's interrupt status, like
// java.lang.Thread.interrupted.
func (t *Thread) Interrupted() bool {
	return t.interrupted.Swap(false)
}

// IsInterrupted reports the interrupt status without clearing it.
func (t *Thread) IsInterrupted() bool { return t.interrupted.Load() }

// PublishFrame records the interpreter frame (method name + bytecode pc)
// about to perform a lock operation on this thread, for lock-site
// attribution. Must be called by the owning goroutine and paired with
// ClearFrame.
//
//lockvet:noalloc
func (t *Thread) PublishFrame(method string, pc int32) {
	t.frameMethod = method
	t.framePC = pc
	t.frameSet = true
}

// ClearFrame clears the published interpreter frame.
//
//lockvet:noalloc
func (t *Thread) ClearFrame() {
	t.frameMethod = ""
	t.framePC = 0
	t.frameSet = false
}

// Frame returns the published interpreter frame, if any. Must be called
// by the owning goroutine.
func (t *Thread) Frame() (method string, pc int32, ok bool) {
	return t.frameMethod, t.framePC, t.frameSet
}

// Registry hands out thread indices and maps them back to Threads,
// mirroring the paper's index→thread-pointer table.
type Registry struct {
	mu       sync.Mutex
	threads  []*Thread // index → thread; slot 0 is always nil
	free     []uint16  // recycled indices, LIFO
	attached int

	peakAttached int
	totalAttach  uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{threads: make([]*Thread, 1, 64)}
}

// Attach allocates an index and returns a new Thread for the calling
// goroutine. The returned Thread must be released with Detach when the
// logical thread terminates.
func (r *Registry) Attach(name string) (*Thread, error) {
	r.mu.Lock()
	defer r.mu.Unlock()

	var idx uint16
	switch {
	case len(r.free) > 0:
		idx = r.free[len(r.free)-1]
		r.free = r.free[:len(r.free)-1]
	case len(r.threads) <= MaxThreads:
		idx = uint16(len(r.threads))
		r.threads = append(r.threads, nil)
	default:
		return nil, ErrTooManyThreads
	}

	t := &Thread{
		shifted:  uint32(idx) << IndexShift,
		name:     name,
		proc:     takeProcIndex(),
		registry: r,
	}
	r.threads[idx] = t
	r.attached++
	r.totalAttach++
	if r.attached > r.peakAttached {
		r.peakAttached = r.attached
	}
	return t, nil
}

// Detach releases the thread's index for reuse. The Thread must not be
// used afterwards, and must not hold any locks.
func (r *Registry) Detach(t *Thread) {
	if t == nil || t.shifted == 0 {
		return
	}
	idx := t.Index()
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(idx) >= len(r.threads) || r.threads[idx] != t {
		return // already detached or foreign thread
	}
	r.threads[idx] = nil
	r.free = append(r.free, idx)
	r.attached--
	releaseProcIndex(t.proc)
}

// Lookup returns the Thread with the given index, or nil if the index is
// unassigned.
func (r *Registry) Lookup(idx uint16) *Thread {
	r.mu.Lock()
	defer r.mu.Unlock()
	if idx == 0 || int(idx) >= len(r.threads) {
		return nil
	}
	return r.threads[idx]
}

// Attached reports the number of currently attached threads.
func (r *Registry) Attached() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.attached
}

// Peak reports the maximum number of simultaneously attached threads.
func (r *Registry) Peak() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.peakAttached
}

// TotalAttached reports the number of Attach calls ever made.
func (r *Registry) TotalAttached() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.totalAttach
}

// Go attaches a new Thread, runs fn with it on a fresh goroutine, and
// detaches it when fn returns. The returned channel is closed after the
// detach completes.
func (r *Registry) Go(name string, fn func(*Thread)) (<-chan struct{}, error) {
	t, err := r.Attach(name)
	if err != nil {
		return nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer r.Detach(t)
		fn(t)
	}()
	return done, nil
}

// WaitState says where a thread's wait record is queued (see
// WaitRecord).
type WaitState uint8

const (
	NotQueued WaitState = iota // in no queue
	Entering                   // queued to acquire a lock
	Waiting                    // in a monitor's wait set
	Granted                    // handed ownership by a releasing thread
)

// WaitRecord is the state a lock queues for a blocked thread. Each
// Thread owns exactly one, reused for every block. A waker changes State
// under the queue's latch and then unparks the thread; the thread parks
// in a loop that re-checks State under the same latch. A permit that
// finds the record still queued — an interrupt, a biased revoker's
// wake, an unpark that arrived after its thread had moved on — is
// therefore harmless: the thread parks again.
type WaitRecord struct {
	Parker
	Count uint32 // lock count to restore when ownership is handed over
	State WaitState
}

// Parker is a one-permit binary semaphore used to block and unblock a
// thread. Unpark before Park leaves a permit so the wakeup is never lost;
// multiple Unparks coalesce into one permit. Park and ParkTimeout are
// called only by the owning thread.
type Parker struct {
	once  sync.Once
	ch    chan struct{}
	timer *time.Timer // ParkTimeout's, reused across calls
}

func (p *Parker) init() {
	p.once.Do(func() { p.ch = make(chan struct{}, 1) })
}

// Park blocks until a permit is available and consumes it.
func (p *Parker) Park() {
	p.init()
	<-p.ch
}

// ParkTimeout blocks until a permit is available or d elapses. It reports
// whether a permit was consumed (true) or the timeout fired (false).
// A non-positive d polls without blocking.
//
// The timer is the Parker's own, re-armed on each call. Under the go
// 1.22 timer semantics this module declares, a timer that fires before
// Stop leaves its tick buffered in C, so when a permit wins the race the
// tick is drained; otherwise the next call would read it as its own
// timeout.
func (p *Parker) ParkTimeout(d time.Duration) bool {
	p.init()
	if d <= 0 {
		select {
		case <-p.ch:
			return true
		default:
			return false
		}
	}
	if p.timer == nil {
		p.timer = time.NewTimer(d)
	} else {
		p.timer.Reset(d)
	}
	select {
	case <-p.ch:
		p.stopTimer()
		return true
	case <-p.timer.C:
		return false
	}
}

// stopTimer stops the armed timer, whose tick nobody has received, and
// drains the tick if the timer fired first.
func (p *Parker) stopTimer() {
	if !p.timer.Stop() {
		<-p.timer.C
	}
}

// Unpark makes one permit available if none is pending.
func (p *Parker) Unpark() {
	p.init()
	select {
	case p.ch <- struct{}{}:
	default:
	}
}
