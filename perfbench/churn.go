package main

import (
	"fmt"
	"time"

	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// monitor-churn: two clients allocate, lock and abandon generations of
// objects. Each request locks k fresh private objects, k drawn from the
// seed, and then crosses a two-party wait/notify barrier on a fresh
// shared object, as the repo's churn workload does. The first party to
// arrive waits, and waiting inflates, so every request inflates one
// short-lived monitor: the default lock never frees it, and the
// monitor table grows with every barrier.
const (
	churnClients     = 2
	churnGenerations = 4
	churnMinK        = 4
	churnMaxK        = 28
	// churnPatience bounds an epoch's timed window. A client still
	// waiting at a barrier when it runs out (a lost wakeup, a partner
	// that never started) gives up and counts a failure instead of
	// hanging the run. An epoch takes well under a second.
	churnPatience = 10 * time.Second
)

// barrierState is one barrier's two-party handshake, guarded by the
// barrier object's lock.
type barrierState struct {
	arrived [churnClients]bool
	crossed [churnClients]bool
}

type churnEpoch struct {
	env      *runtimeEnv
	perGen   int                   // requests per client per generation
	ks       [churnClients][]uint8 // private objects per request
	last     []*object.Object      // the final generation's barriers
	states   [][]barrierState      // every generation's handshakes
	sums     [churnClients]uint64
	failed   [churnClients]int
	startErr int
	deadline int64 // nanotime by which every barrier must be crossed
}

func churnWorkload() *workload {
	return &workload{
		name:        "monitor-churn",
		clients:     churnClients,
		requests:    120000,
		sampleEvery: 16,
		build:       buildChurn,
	}
}

func buildChurn(env *runtimeEnv, seed uint64, epoch int, requests int) (epochRun, error) {
	e := &churnEpoch{env: env, perGen: max(1, requests/(churnClients*churnGenerations))}
	for c := range e.ks {
		r := newRNG(seed, epoch, 20+uint64(c))
		e.ks[c] = make([]uint8, e.perGen*churnGenerations)
		for i := range e.ks[c] {
			e.ks[c][i] = uint8(r.between(churnMinK, churnMaxK))
		}
	}
	e.states = make([][]barrierState, churnGenerations)
	for g := range e.states {
		e.states[g] = make([]barrierState, e.perGen)
	}
	return e, nil
}

func (e *churnEpoch) requests() int { return e.perGen * churnGenerations * churnClients }

func (e *churnEpoch) run(logs []clientLog) int64 {
	var window int64
	e.deadline = nanotime() + int64(churnPatience)
	for g := 0; g < churnGenerations; g++ {
		// A fresh generation of shared barriers; the previous one is
		// abandoned, monitors and all.
		barriers := make([]*object.Object, e.perGen)
		for i := range barriers {
			barriers[i] = e.env.heap.New("Barrier")
		}
		states := e.states[g]
		window += runClients(e.env, churnClients, func(c int, t *threading.Thread) {
			e.client(c, t, g, barriers, states, logs[c].from(g*e.perGen))
		}, &e.startErr)
		e.last = barriers
	}
	return window
}

func (e *churnEpoch) client(c int, t *threading.Thread, g int, barriers []*object.Object, states []barrierState, log clientLog) {
	tt := e.env.trace(t)
	l := e.env.locker
	failed := &e.failed[c]
	ks := e.ks[c][g*e.perGen:]
	sum := e.sums[c]
	for i := range barriers {
		t0 := nanotime()
		root := tt.beginRequest(int64(c)<<32 | int64(g*e.perGen+i))
		for k := 0; k < int(ks[i]); k++ {
			o := e.env.heap.New("Object")
			l.Lock(t, o)
			sum = mix(sum, uint64(g)<<32|uint64(k))
			e.env.unlock(t, o, failed)
		}
		e.barrier(t, barriers[i], &states[i], c, failed)
		sum = mix(sum, uint64(i))
		tt.endRequest(root)
		log.record(i, t0)
	}
	e.sums[c] = sum
}

// barrier is a two-party rendezvous on o: record the arrival, wake a
// possibly waiting partner, and wait until the partner has arrived. Each
// wait is timed to the epoch's deadline; a wait that times out, or a
// deadline already past, is a failure, and the barrier stays uncrossed
// unless the partner did arrive.
func (e *churnEpoch) barrier(t *threading.Thread, o *object.Object, st *barrierState, c int, failed *int) {
	l := e.env.locker
	l.Lock(t, o)
	st.arrived[c] = true
	if err := l.NotifyAll(t, o); err != nil {
		*failed++
	}
	for !st.arrived[1-c] {
		left := e.deadline - nanotime()
		if left <= 0 {
			*failed++
			break
		}
		notified, err := l.Wait(t, o, time.Duration(left))
		if err != nil || !notified {
			*failed++
			break
		}
	}
	st.crossed[c] = st.arrived[1-c]
	e.env.unlock(t, o, failed)
}

// check recomputes each client's checksum without locks, requires every
// barrier to have been crossed by both parties, and checks that the
// drained runtime is quiescent.
func (e *churnEpoch) check() []string {
	var v []string
	if n := e.failures(); n > 0 {
		v = append(v, fmt.Sprintf("%d lock operations failed", n))
	}
	for c := range e.sums {
		var want uint64
		for g := 0; g < churnGenerations; g++ {
			for i := 0; i < e.perGen; i++ {
				for k := 0; k < int(e.ks[c][g*e.perGen+i]); k++ {
					want = mix(want, uint64(g)<<32|uint64(k))
				}
				want = mix(want, uint64(i))
			}
		}
		if e.sums[c] != want {
			v = append(v, fmt.Sprintf("client %d checksum %#x, model %#x", c, e.sums[c], want))
		}
	}
	uncrossed := 0
	for _, states := range e.states {
		for _, st := range states {
			if st.crossed != [churnClients]bool{true, true} {
				uncrossed++
			}
		}
	}
	if uncrossed > 0 {
		v = append(v, fmt.Sprintf("%d barriers not crossed by both parties", uncrossed))
	}
	return append(v, e.env.quiescence(e.last)...)
}

func (e *churnEpoch) failures() int { return e.failed[0] + e.failed[1] + e.startErr }

func (e *churnEpoch) checksum() uint64 { return mix(e.sums[0], e.sums[1]) }

func (e *churnEpoch) dropInputs() {
	e.ks = [churnClients][]uint8{}
	e.states, e.last = nil, nil
}
