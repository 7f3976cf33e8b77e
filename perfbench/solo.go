package main

import (
	"fmt"
	"strconv"

	"thinlock/internal/jcl"
	"thinlock/internal/minijava"
	"thinlock/internal/object"
	"thinlock/internal/threading"
	"thinlock/internal/vm"
)

// solo-sync: one client issuing a seeded mix of short single-threaded
// library requests, the paper's common case. Its four request kinds model
// the repo's jax, sessiond, crema and minibank workloads.
const (
	kindDataflow = iota // BitSet dataflow reads (jax)
	kindSession         // Hashtable/Vector/StringBuffer session update (sessiond)
	kindScratch         // short-lived synchronized containers (crema)
	kindVMCall          // compiled synchronized methods on the VM (minibank)
)

// Shape of the solo-sync state. The dataflow graph's BitSets are jax's
// lock working set (Table 1: 768 synced objects, ~750 syncs each); the
// session tables are sessiond's small long-lived one.
const (
	soloNodes    = 384  // dataflow nodes, two BitSets each
	soloBits     = 1024 // bits per BitSet
	soloSessions = 48
	soloKeys     = 32 // distinct keys per session table
	soloLogCap   = 64 // session log entries kept before it is cleared
	soloAccounts = 16
	soloWarmup   = 2000 // untimed requests run as part of set-up

	// A dataflow request reads a span of one node's bits, 96 on average:
	// jax's bits per node at its default size. A scratch request fills
	// 24 elements on average: crema's translation unit.
	soloSpanMin, soloSpanMax       = 48, 144
	soloScratchMin, soloScratchMax = 12, 36
)

// soloKindWeights are the request kinds' shares of the stream, per mille.
// They give each kind the share of lock operations that its source
// workload has of the syncs Table 1 measures for jax, sessiond, crema and
// minibank at default size (577,469, 92,008, 146,400 and 32,000: 68.1%,
// 10.9%, 17.3% and 3.8%). A kind's weight is its syncs share divided by
// its syncs per request (about 203, 10.0, 125 and 4). README.md has the
// derivation, and a test checks the resulting shares.
var soloKindWeights = [4]int{kindDataflow: 134, kindSession: 433, kindScratch: 55, kindVMCall: 378}

// soloSource is the MiniJava program behind kindVMCall: a synchronized
// block around three synchronized-method calls, so one in four of its
// lock operations is nested (minibank's Figure 3 shape).
const soloSource = `
class Account {
    field balance;
    sync method deposit(n) { this.balance = this.balance + n; return this.balance; }
    sync method withdraw(n) { this.balance = this.balance - n; return this.balance; }
}

class Ledger {
    field entries;
    field total;
    sync method record(n) {
        this.entries = this.entries + 1;
        this.total = this.total + n;
        return this.entries;
    }
}

func transfer(from: Account, to: Account, ledger: Ledger, amount) {
    var left = 0;
    var right = 0;
    var n = 0;
    synchronized (ledger) {
        left = from.withdraw(amount);
        right = to.deposit(amount);
        n = ledger.record(amount);
    }
    return (left * 100000 + right) * 100000 + n;
}
`

type soloReq struct {
	kind       uint8
	a, b, c, d int32
}

type soloEpoch struct {
	env  *runtimeEnv
	ctx  *jcl.Context
	reqs []soloReq

	out, kill []*jcl.BitSet
	tables    []*jcl.Hashtable
	logs      []*jcl.Vector
	render    *jcl.StringBuffer
	keys      []string
	machine   *vm.VM
	accounts  []*vm.Obj
	ledger    *vm.Obj

	initOut, initKill [][]uint64 // model copies of the initial BitSets
	results           []uint64
	failed            int
}

func soloWorkload() *workload {
	return &workload{
		name:        "solo-sync",
		clients:     1,
		requests:    150000,
		sampleEvery: 64,
		build:       buildSolo,
	}
}

// genSolo draws an epoch's request stream.
func genSolo(seed uint64, epoch, n int) []soloReq {
	r := newRNG(seed, epoch, 1)
	reqs := make([]soloReq, n)
	for i := range reqs {
		var q soloReq
		switch p := r.intn(1000); {
		case p < soloKindWeights[kindDataflow]:
			q.kind = kindDataflow
			q.a = int32(r.intn(soloNodes))
			q.c = int32(r.between(soloSpanMin, soloSpanMax))
			q.b = int32(r.intn(soloBits - int(q.c)))
			q.d = -1
			if r.oneIn(8) {
				q.d = int32(r.intn(soloBits))
			}
		case p < soloKindWeights[kindDataflow]+soloKindWeights[kindSession]:
			q.kind = kindSession
			q.a = int32(r.intn(soloSessions))
			q.b = int32(r.intn(soloKeys))
			q.c = int32(r.between(-50, 100))
		case p < 1000-soloKindWeights[kindVMCall]:
			q.kind = kindScratch
			q.a = int32(r.between(soloScratchMin, soloScratchMax))
			q.b = int32(r.intn(1 << 20))
		default:
			q.kind = kindVMCall
			q.a = int32(r.intn(soloAccounts))
			q.b = int32(r.intn(soloAccounts))
			q.c = int32(r.between(1, 500))
		}
		reqs[i] = q
	}
	return reqs
}

// genBits draws the initial dataflow BitSets.
func genBits(seed uint64, epoch int, stream uint64, density int) [][]uint64 {
	r := newRNG(seed, epoch, stream)
	sets := make([][]uint64, soloNodes)
	for i := range sets {
		sets[i] = make([]uint64, soloBits/64)
		for w := range sets[i] {
			for b := 0; b < 64; b++ {
				if r.oneIn(density) {
					sets[i][w] |= 1 << b
				}
			}
		}
	}
	return sets
}

func buildSolo(env *runtimeEnv, seed uint64, epoch int, requests int) (epochRun, error) {
	e := &soloEpoch{
		env:      env,
		ctx:      jcl.NewContext(env.locker, env.heap),
		reqs:     genSolo(seed, epoch, requests+soloWarmup),
		initOut:  genBits(seed, epoch, 2, 8),
		initKill: genBits(seed, epoch, 3, 4),
	}
	e.results = make([]uint64, len(e.reqs))
	prog, err := minijava.Compile(soloSource)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	e.machine, err = vm.New(prog, env.locker, env.heap)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}

	t, err := env.reg.Attach("setup")
	if err != nil {
		return nil, err
	}
	defer env.reg.Detach(t)
	fill := func(init [][]uint64) []*jcl.BitSet {
		sets := make([]*jcl.BitSet, len(init))
		for i, words := range init {
			sets[i] = e.ctx.NewBitSet(soloBits)
			for b := 0; b < soloBits; b++ {
				if words[b/64]&(1<<(b%64)) != 0 {
					sets[i].Set(t, b)
				}
			}
		}
		return sets
	}
	e.out, e.kill = fill(e.initOut), fill(e.initKill)
	for i := 0; i < soloSessions; i++ {
		e.tables = append(e.tables, e.ctx.NewHashtable())
		e.logs = append(e.logs, e.ctx.NewVector())
	}
	e.render = e.ctx.NewStringBuffer()
	for k := 0; k < soloKeys; k++ {
		e.keys = append(e.keys, "key"+strconv.Itoa(k))
	}
	for i := 0; i < soloAccounts; i++ {
		a, err := e.machine.NewInstance("Account")
		if err != nil {
			return nil, err
		}
		a.Fields[0] = vm.IntValue(1000)
		e.accounts = append(e.accounts, a)
	}
	if e.ledger, err = e.machine.NewInstance("Ledger"); err != nil {
		return nil, err
	}
	for i := 0; i < soloWarmup; i++ {
		e.results[i] = e.exec(t, nil, i)
	}
	return e, nil
}

func (e *soloEpoch) requests() int { return len(e.reqs) - soloWarmup }

func (e *soloEpoch) run(logs []clientLog) int64 {
	return runClients(e.env, 1, func(_ int, t *threading.Thread) {
		i := soloWarmup
		defer func() {
			// A library call panics only when an unlock fails; the
			// request it was in and every later one count as failed.
			if recover() != nil {
				e.failed += len(e.reqs) - i
			}
		}()
		tt := e.env.trace(t)
		log := logs[0]
		for ; i < len(e.reqs); i++ {
			t0 := nanotime()
			root := tt.beginRequest(int64(i))
			e.results[i] = e.exec(t, tt, i)
			tt.endRequest(root)
			log.record(i-soloWarmup, t0)
		}
	}, &e.failed)
}

// exec performs request i and returns its result.
func (e *soloEpoch) exec(t *threading.Thread, tt *threadTrace, i int) uint64 {
	q := e.reqs[i]
	switch q.kind {
	case kindDataflow:
		n := int(q.a)
		p1, p2 := (n+soloNodes-1)%soloNodes, (n*3)%soloNodes
		count := uint64(0)
		for b := int(q.b); b < int(q.b+q.c); b++ {
			s := tt.begin(spBitSetGet)
			in := e.out[p1].Get(t, b)
			tt.end(s)
			if !in {
				s = tt.begin(spBitSetGet)
				in = e.out[p2].Get(t, b)
				tt.end(s)
			}
			if in {
				s = tt.begin(spBitSetGet)
				killed := e.kill[n].Get(t, b)
				tt.end(s)
				if !killed {
					count++
				}
			}
		}
		if q.d >= 0 {
			s := tt.begin(spBitSetSet)
			e.out[n].Set(t, int(q.d))
			tt.end(s)
		}
		return count<<32 | uint64(n)

	case kindSession:
		tbl, log, key := e.tables[q.a], e.logs[q.a], e.keys[q.b]
		s := tt.begin(spHashtableGet)
		v, _ := tbl.Get(t, key).(int64)
		tt.end(s)
		v += int64(q.c)
		s = tt.begin(spHashtablePut)
		tbl.Put(t, key, v)
		tt.end(s)
		s = tt.begin(spVectorAdd)
		log.AddElement(t, v)
		tt.end(s)
		s = tt.begin(spVectorSize)
		n := log.Size(t)
		tt.end(s)
		if n >= soloLogCap {
			s = tt.begin(spVectorClear)
			log.RemoveAllElements(t)
			tt.end(s)
		}
		s = tt.begin(spBufferSetLength)
		e.render.SetLength(t, 0)
		tt.end(s)
		s = tt.begin(spBufferAppend)
		e.render.Append(t, key)
		tt.end(s)
		s = tt.begin(spBufferAppendChar)
		e.render.AppendChar(t, '=')
		tt.end(s)
		s = tt.begin(spBufferAppendInt)
		e.render.AppendInt(t, v)
		tt.end(s)
		s = tt.begin(spBufferString)
		text := e.render.String(t)
		tt.end(s)
		return mix(mix(uint64(v), uint64(n)), hashString(text))

	case kindScratch:
		locals, work := e.ctx.NewVector(), e.ctx.NewStack()
		for k := 0; k < int(q.a); k++ {
			e.env.heap.New("Insn")
			s := tt.begin(spVectorAdd)
			locals.AddElement(t, (int(q.b)*31+k*7)%97)
			tt.end(s)
			if k%3 == 0 {
				s = tt.begin(spStackPush)
				work.Push(t, k)
				tt.end(s)
			}
		}
		sum := uint64(q.a)
		for {
			s := tt.begin(spStackEmpty)
			empty := work.Empty(t)
			tt.end(s)
			if empty {
				break
			}
			s = tt.begin(spStackPop)
			k := work.Pop(t).(int)
			tt.end(s)
			s = tt.begin(spVectorElementAt)
			x := locals.ElementAt(t, k).(int)
			tt.end(s)
			sum = mix(sum, uint64(x))
		}
		s := tt.begin(spVectorClear)
		locals.RemoveAllElements(t)
		tt.end(s)
		return sum

	default: // kindVMCall
		s := tt.begin(spVMRun)
		res, err := e.machine.Run(t, "transfer", vm.RefValue(e.accounts[q.a]),
			vm.RefValue(e.accounts[q.b]), vm.RefValue(e.ledger), vm.IntValue(int64(q.c)))
		tt.end(s)
		if err != nil {
			e.failed++
			return 0
		}
		return uint64(res.I)
	}
}

// check replays the stream on a lock-free Go model and compares every
// request's result, then checks that the drained runtime is quiescent
// and never inflated.
func (e *soloEpoch) check() []string {
	var v []string
	if e.failed > 0 {
		v = append(v, fmt.Sprintf("%d requests failed", e.failed))
	}
	m := newSoloModel(e.initOut, e.initKill)
	bad := 0
	for i, q := range e.reqs {
		if want := m.exec(q); want != e.results[i] {
			if bad == 0 {
				v = append(v, fmt.Sprintf("request %d (kind %d): result %#x, model %#x", i, q.kind, e.results[i], want))
			}
			bad++
		}
	}
	if bad > 0 {
		v = append(v, fmt.Sprintf("%d of %d results differ from the model", bad, len(e.reqs)))
	}
	retained := []*object.Object{e.render.Object(), e.ledger.Object}
	for i := range e.out {
		retained = append(retained, e.out[i].Object(), e.kill[i].Object())
	}
	for i := range e.tables {
		retained = append(retained, e.tables[i].Object(), e.logs[i].Object())
	}
	for _, a := range e.accounts {
		retained = append(retained, a.Object)
	}
	v = append(v, e.env.quiescence(retained)...)
	if n := e.env.lock.Stats().Inflations(); n != 0 {
		v = append(v, fmt.Sprintf("%d inflations on a single-threaded workload", n))
	}
	return v
}

func (e *soloEpoch) failures() int { return e.failed }

func (e *soloEpoch) checksum() uint64 {
	sum := uint64(len(e.results))
	for _, r := range e.results {
		sum = mix(sum, r)
	}
	return sum
}

func (e *soloEpoch) dropInputs() {
	e.reqs, e.results, e.initOut, e.initKill = nil, nil, nil, nil
}

// soloModel is the same state as a soloEpoch in plain Go, with no locks.
type soloModel struct {
	out, kill [][]uint64
	tables    []map[int32]int64
	logLen    []int
	balances  [soloAccounts]int64
	entries   int64
}

func newSoloModel(out, kill [][]uint64) *soloModel {
	m := &soloModel{kill: kill, tables: make([]map[int32]int64, soloSessions), logLen: make([]int, soloSessions)}
	for _, w := range out {
		m.out = append(m.out, append([]uint64(nil), w...))
	}
	for i := range m.tables {
		m.tables[i] = map[int32]int64{}
	}
	for i := range m.balances {
		m.balances[i] = 1000
	}
	return m
}

func bit(words []uint64, b int) bool { return words[b/64]&(1<<(b%64)) != 0 }

func (m *soloModel) exec(q soloReq) uint64 {
	switch q.kind {
	case kindDataflow:
		n := int(q.a)
		p1, p2 := (n+soloNodes-1)%soloNodes, (n*3)%soloNodes
		count := uint64(0)
		for b := int(q.b); b < int(q.b+q.c); b++ {
			if (bit(m.out[p1], b) || bit(m.out[p2], b)) && !bit(m.kill[n], b) {
				count++
			}
		}
		if q.d >= 0 {
			m.out[n][q.d/64] |= 1 << (q.d % 64)
		}
		return count<<32 | uint64(n)

	case kindSession:
		v := m.tables[q.a][q.b] + int64(q.c)
		m.tables[q.a][q.b] = v
		m.logLen[q.a]++
		n := m.logLen[q.a]
		if n >= soloLogCap {
			m.logLen[q.a] = 0
		}
		text := "key" + strconv.Itoa(int(q.b)) + "=" + strconv.FormatInt(v, 10)
		return mix(mix(uint64(v), uint64(n)), hashString(text))

	case kindScratch:
		var locals []int
		var work []int
		for k := 0; k < int(q.a); k++ {
			locals = append(locals, (int(q.b)*31+k*7)%97)
			if k%3 == 0 {
				work = append(work, k)
			}
		}
		sum := uint64(q.a)
		for len(work) > 0 {
			k := work[len(work)-1]
			work = work[:len(work)-1]
			sum = mix(sum, uint64(locals[k]))
		}
		return sum

	default:
		m.balances[q.a] -= int64(q.c)
		left := m.balances[q.a]
		m.balances[q.b] += int64(q.c)
		right := m.balances[q.b]
		m.entries++
		return uint64((left*100000+right)*100000 + m.entries)
	}
}
