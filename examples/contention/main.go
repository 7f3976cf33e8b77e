// Contention: demonstrates the thin→fat transition of §2.3.4. Several
// threads hammer one shared counter object and a set of mostly-private
// objects. The shared object inflates (exactly once — "once an object's
// lock is inflated, it remains inflated for the lifetime of the object"),
// while the private objects stay thin, so the fat-lock population stays
// tiny even under heavy synchronization traffic.
package main

import (
	"fmt"
	"log"
	"runtime"

	"thinlock"
)

func main() {
	const (
		threads = 8
		iters   = 50_000
	)
	rt := thinlock.New()

	shared := rt.NewObject("SharedCounter")
	privates := make([]*thinlock.Object, threads)
	for i := range privates {
		privates[i] = rt.NewObject("PrivateScratch")
	}

	counter := 0
	var done []<-chan struct{}
	for i := 0; i < threads; i++ {
		i := i
		ch, err := rt.Go(fmt.Sprintf("worker-%d", i), func(t *thinlock.Thread) {
			scratch := 0
			for n := 0; n < iters; n++ {
				// Contended: every thread locks the shared object.
				// The occasional yield inside the critical section
				// guarantees overlap even on a single-CPU machine,
				// so the thin→fat transition is visible.
				rt.Synchronized(t, shared, func() {
					counter++
					if n%5000 == 0 {
						runtime.Gosched()
					}
				})
				// Uncontended: each thread locks its own object.
				rt.Synchronized(t, privates[i], func() { scratch++ })
			}
		})
		if err != nil {
			log.Fatal(err)
		}
		done = append(done, ch)
	}
	for _, ch := range done {
		<-ch
	}

	want := threads * iters
	fmt.Printf("counter = %d (want %d) — mutual exclusion held\n", counter, want)
	if counter != want {
		log.Fatal("lost updates!")
	}

	fmt.Printf("shared object inflated:  %v\n", rt.Inflated(shared))
	thinCount := 0
	for _, p := range privates {
		if !rt.Inflated(p) {
			thinCount++
		}
	}
	fmt.Printf("private objects thin:    %d / %d\n", thinCount, threads)

	s := rt.ThinLockStats()
	fmt.Printf("inflations: contention=%d overflow=%d wait=%d; fat locks=%d\n",
		s.InflationsContention, s.InflationsOverflow, s.InflationsWait, s.FatLocks)
	fmt.Printf("(%d sync ops performed; only %d monitor(s) ever allocated)\n",
		2*want, s.FatLocks)
}
