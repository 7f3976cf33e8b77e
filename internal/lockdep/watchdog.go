package lockdep

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"thinlock/internal/lockevent"
)

// The stall watchdog. A background ticker scans the wait-for state; any
// thread whose current blocking episode has lasted past a threshold
// triggers a flight-recorder dump: the stalled threads, every current
// wait-for edge, any wait-for cycles (a stall that *is* a deadlock gets
// named as one), the lock-order inversions seen so far, and the recent
// event ring. Each blocking episode dumps at most once (tracked by the
// per-slot wait sequence number), so a hard hang produces one report,
// not one per tick.

// WatchdogOptions configures StartWatchdog. The zero value is valid.
type WatchdogOptions struct {
	// Threshold is how long a single blocking episode may last before
	// it is reported as a stall. Default 1s.
	Threshold time.Duration
	// Interval is the scan period. Default Threshold/4, floored at
	// 10ms.
	Interval time.Duration
	// OnStall receives each dump. Default: write text to os.Stderr is
	// NOT assumed — a nil OnStall only counts the stall; callers that
	// want output must say where.
	OnStall func(StallDump)
}

// StallDump is one watchdog report: everything needed to diagnose the
// stall post mortem.
type StallDump struct {
	// WhenNs is the lockevent.Now timestamp of the dump.
	WhenNs int64 `json:"when_ns"`
	// Threshold is the stall threshold that was exceeded.
	Threshold time.Duration `json:"threshold_ns"`
	// Stalled lists the threads whose wait exceeded the threshold.
	Stalled []WaitNode `json:"stalled"`
	// Waiters is the full wait-for snapshot at dump time.
	Waiters []WaitNode `json:"waiters"`
	// Cycles lists confirmed wait-for cycles: actual deadlocks.
	Cycles []WaitCycle `json:"cycles,omitempty"`
	// Inversions lists the lock-order inversion reports seen so far.
	Inversions []*InversionReport `json:"inversions,omitempty"`
	// Events is the flight recorder at dump time, oldest first.
	Events []Event `json:"events,omitempty"`
}

// WriteText renders the dump as an indented text report.
func (sd StallDump) WriteText(w io.Writer) {
	fmt.Fprintf(w, "=== lockdep stall dump (threshold %v) ===\n", sd.Threshold)
	fmt.Fprintf(w, "stalled threads: %d\n", len(sd.Stalled))
	for _, n := range sd.Stalled {
		fmt.Fprintf(w, "  %s blocked on %s for %s (%s at %s)\n",
			n.Thread, n.BlockedOn, time_ns(n.WaitNs), n.Kind, n.BlockedSite)
		if n.Holder != "" {
			fmt.Fprintf(w, "    held by %s\n", n.Holder)
		}
		for _, h := range n.Holds {
			fmt.Fprintf(w, "    holds %s (acquired at %s)\n", h.Object, h.Site)
		}
	}
	if len(sd.Cycles) > 0 {
		fmt.Fprintf(w, "deadlocks:\n")
		for _, c := range sd.Cycles {
			fmt.Fprintf(w, "%s\n", c)
		}
	}
	if len(sd.Inversions) > 0 {
		fmt.Fprintf(w, "lock-order inversions:\n")
		for _, r := range sd.Inversions {
			fmt.Fprintf(w, "%s\n", r)
		}
	}
	if n := len(sd.Events); n > 0 {
		const tail = 32
		evs := sd.Events
		if n > tail {
			fmt.Fprintf(w, "recent events (last %d of %d):\n", tail, n)
			evs = evs[n-tail:]
		} else {
			fmt.Fprintf(w, "recent events (%d):\n", n)
		}
		for _, ev := range evs {
			fmt.Fprintf(w, "  [%d] %-10s %-14s %s", ev.Seq, ev.Kind, ev.Thread, ev.Object)
			if ev.Detail != "" {
				fmt.Fprintf(w, " (%s)", ev.Detail)
			}
			if ev.Site != "" {
				fmt.Fprintf(w, " at %s", ev.Site)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "=== end stall dump ===\n")
}

// Watchdog is a running stall scanner. Stop it with Stop.
type Watchdog struct {
	d    *Lockdep
	opts WatchdogOptions

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	// lastDump remembers, per thread slot, the wait sequence number of
	// the last episode already dumped, so each stall reports once.
	lastDump [numSlots]atomic.Uint64

	dumps atomic.Uint64
}

// StartWatchdog begins scanning d for stalls and returns the running
// watchdog.
func (d *Lockdep) StartWatchdog(opts WatchdogOptions) *Watchdog {
	if opts.Threshold <= 0 {
		opts.Threshold = time.Second
	}
	if opts.Interval <= 0 {
		opts.Interval = opts.Threshold / 4
	}
	if opts.Interval < 10*time.Millisecond {
		opts.Interval = 10 * time.Millisecond
	}
	w := &Watchdog{
		d:    d,
		opts: opts,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go w.run()
	return w
}

// Stop halts the watchdog and waits for its goroutine to exit. Safe to
// call more than once.
func (w *Watchdog) Stop() {
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done
}

// Dumps reports how many stall dumps have fired.
func (w *Watchdog) Dumps() uint64 { return w.dumps.Load() }

func (w *Watchdog) run() {
	defer close(w.done)
	tick := time.NewTicker(w.opts.Interval)
	defer tick.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-tick.C:
			w.scan()
		}
	}
}

// scan inspects the current waiters and fires a dump if any episode
// has outlived the threshold and was not already reported.
func (w *Watchdog) scan() {
	edges := w.d.snapshotWaiters()
	thresholdNs := w.opts.Threshold.Nanoseconds()
	var stalled []WaitNode
	var fresh []*waitEdge
	for i := range edges {
		e := &edges[i]
		if e.node.WaitNs < thresholdNs {
			continue
		}
		if w.lastDump[e.slot].Load() == e.seq {
			continue // this episode already dumped
		}
		stalled = append(stalled, e.node)
		fresh = append(fresh, e)
	}
	if len(stalled) == 0 {
		return
	}
	for _, e := range fresh {
		w.lastDump[e.slot].Store(e.seq)
	}
	dump := StallDump{
		WhenNs:     lockevent.Now(),
		Threshold:  w.opts.Threshold,
		Stalled:    stalled,
		Waiters:    make([]WaitNode, 0, len(edges)),
		Cycles:     w.d.DetectWaitCycles(),
		Inversions: w.d.Inversions(),
		Events:     w.d.Events(),
	}
	for i := range edges {
		dump.Waiters = append(dump.Waiters, edges[i].node)
	}
	w.dumps.Add(1)
	w.d.ring.record(EvStallDump, 0, nil, 0, uint32(len(stalled)))
	if w.opts.OnStall != nil {
		w.opts.OnStall(dump)
	}
}
