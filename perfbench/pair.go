package main

import (
	"fmt"
	"runtime"

	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// pair-contend: two clients post double-entry transactions to a few
// shared accounts. Each request is one transaction of pairLegs legs, and
// each leg is a critical section on its account's guard object. A seeded
// share of legs yields while holding the guard (a thread descheduled
// inside a critical section, as the repo's bankmt does), so the guards
// inflate almost at once and nearly every later acquire goes through the
// fat monitor.
const (
	pairClients = 2
	pairGuards  = 4
	pairLegs    = 4
	pairYieldIn = 4 // one leg in pairYieldIn yields while holding its guard
	pairInitial = 1_000_000
)

// pairLeg moves amount into (or, negative, out of) account guard.
type pairLeg struct {
	guard  uint8
	yield  bool
	amount int32
}

// pairReq is one transaction; its legs sum to zero.
type pairReq [pairLegs]pairLeg

type pairEpoch struct {
	env      *runtimeEnv
	reqs     [pairClients][]pairReq
	guards   [pairGuards]*object.Object
	balances [pairGuards]int64
	ledgers  [pairGuards][]int32 // posted amounts, appended under the guard
	failed   [pairClients]int
}

func pairWorkload() *workload {
	return &workload{
		name:        "pair-contend",
		clients:     pairClients,
		requests:    300000,
		sampleEvery: 32,
		build:       buildPair,
	}
}

func genPair(seed uint64, epoch, perClient int) [pairClients][]pairReq {
	var reqs [pairClients][]pairReq
	for c := range reqs {
		r := newRNG(seed, epoch, 10+uint64(c))
		reqs[c] = make([]pairReq, perClient)
		for i := range reqs[c] {
			var q pairReq
			var sum int32
			for l := range q {
				q[l] = pairLeg{guard: uint8(r.intn(pairGuards)), yield: r.oneIn(pairYieldIn)}
				if l < pairLegs-1 {
					q[l].amount = int32(r.between(-1000, 1000))
					sum += q[l].amount
				} else {
					q[l].amount = -sum
				}
			}
			reqs[c][i] = q
		}
	}
	return reqs
}

func buildPair(env *runtimeEnv, seed uint64, epoch int, requests int) (epochRun, error) {
	e := &pairEpoch{env: env, reqs: genPair(seed, epoch, requests/pairClients)}
	var posts [pairGuards]int
	for c := range e.reqs {
		for _, q := range e.reqs[c] {
			for _, leg := range q {
				posts[leg.guard]++
			}
		}
	}
	for g := range e.guards {
		e.guards[g] = env.heap.New("Account")
		e.balances[g] = pairInitial
		e.ledgers[g] = make([]int32, 0, posts[g])
	}
	return e, nil
}

func (e *pairEpoch) requests() int { return len(e.reqs[0]) * pairClients }

func (e *pairEpoch) run(logs []clientLog) int64 {
	return runClients(e.env, pairClients, func(c int, t *threading.Thread) {
		tt := e.env.trace(t)
		l := e.env.locker
		failed := &e.failed[c]
		log := logs[c]
		for i, q := range e.reqs[c] {
			t0 := nanotime()
			root := tt.beginRequest(int64(c)<<32 | int64(i))
			for _, leg := range q {
				g := e.guards[leg.guard]
				l.Lock(t, g)
				bal := e.balances[leg.guard]
				if leg.yield {
					runtime.Gosched()
				}
				e.balances[leg.guard] = bal + int64(leg.amount)
				e.ledgers[leg.guard] = append(e.ledgers[leg.guard], leg.amount)
				e.env.unlock(t, g, failed)
			}
			tt.endRequest(root)
			log.record(i, t0)
		}
	}, &e.failed[0])
}

// check compares each final balance with the sum of the generated legs
// on its account, and each ledger with the generated postings; a lost
// update inside a critical section breaks both.
func (e *pairEpoch) check() []string {
	var v []string
	if n := e.failures(); n > 0 {
		v = append(v, fmt.Sprintf("%d lock operations failed", n))
	}
	var want, posted [pairGuards]int64
	var posts [pairGuards]int
	for g := range want {
		want[g] = pairInitial
	}
	for c := range e.reqs {
		for _, q := range e.reqs[c] {
			for _, leg := range q {
				want[leg.guard] += int64(leg.amount)
				posted[leg.guard] += int64(leg.amount)
				posts[leg.guard]++
			}
		}
	}
	var total int64
	for g := range want {
		total += e.balances[g]
		if e.balances[g] != want[g] {
			v = append(v, fmt.Sprintf("account %d balance %d, generated legs give %d", g, e.balances[g], want[g]))
		}
		var sum int64
		for _, a := range e.ledgers[g] {
			sum += int64(a)
		}
		if len(e.ledgers[g]) != posts[g] || sum != posted[g] {
			v = append(v, fmt.Sprintf("account %d ledger has %d entries summing %d, want %d summing %d",
				g, len(e.ledgers[g]), sum, posts[g], posted[g]))
		}
	}
	if total != pairGuards*pairInitial {
		v = append(v, fmt.Sprintf("balances sum to %d, want %d", total, pairGuards*pairInitial))
	}
	return append(v, e.env.quiescence(e.guards[:])...)
}

func (e *pairEpoch) failures() int { return e.failed[0] + e.failed[1] }

func (e *pairEpoch) checksum() uint64 {
	sum := uint64(pairGuards)
	for g := range e.balances {
		sum = mix(sum, uint64(e.balances[g]))
		sum = mix(sum, uint64(len(e.ledgers[g])))
	}
	return sum
}

// dropInputs releases the requests and the ledgers; check and checksum
// have read the ledgers by then.
func (e *pairEpoch) dropInputs() {
	e.reqs = [pairClients][]pairReq{}
	e.ledgers = [pairGuards][]int32{}
}

// runClients runs body on n attached client threads released together,
// waits for all of them, and returns the wall time from release to the
// last one finishing. A client that cannot attach counts one failure.
func runClients(env *runtimeEnv, n int, body func(c int, t *threading.Thread), failed *int) int64 {
	gate := make(chan struct{})
	dones := make([]<-chan struct{}, 0, n)
	for c := 0; c < n; c++ {
		done, err := env.reg.Go(fmt.Sprintf("client-%d", c), func(t *threading.Thread) {
			<-gate
			body(c, t)
		})
		if err != nil {
			*failed++
			continue
		}
		dones = append(dones, done)
	}
	start := nanotime()
	close(gate)
	for _, d := range dones {
		<-d
	}
	return nanotime() - start
}
