package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"rwsync/rwlock"
)

// The traced run.  Spans are recorded from this file only, around the
// calls into each layer's public functions: the client times the
// public call (Map.Get/Map.Update, or the lock passage on lock-hot),
// and on kv workloads a timing wrapper installed through
// rwmap.WithLockFactory times the stripe lock's RLock/RUnlock/Lock/
// Unlock inside it.  Spans are kept in memory, reduced to histograms
// at the end, and optionally written out as JSON lines.

// epoch is the origin of mono.
var epoch = time.Now()

// mono returns monotonic nanoseconds since epoch.
func mono() int64 { return int64(time.Since(epoch)) }

// clockCost is the median distance between two back-to-back mono
// calls: what one clock read adds to a span it bounds.  Span durations
// are reported with it subtracted.
func clockCost() int64 {
	var h hist
	for i := 0; i < 1<<16; i++ {
		t0 := mono()
		h.add(mono() - t0)
	}
	return int64(h.quantile(0.5))
}

// opSpan is the child-span record of one sampled kv call.  The client
// arms the call's stripe wrapper with it (exclusively, by CAS) before
// the call and disarms after; every wrapper call that sees it armed
// first counts itself in claims, then stores its timestamps.  A sample
// is kept only when claims is exactly the call's own 2 lock calls, so
// a call from the other client on the same stripe while armed is
// detected and the sample discarded, never misattributed.
type opSpan struct {
	claims                 atomic.Int32
	acq0, acq1, rel0, rel1 atomic.Int64
	revoked, rearmed       atomic.Bool
}

func (sp *opSpan) reset() {
	sp.claims.Store(0)
	sp.acq0.Store(0)
	sp.acq1.Store(0)
	sp.rel0.Store(0)
	sp.rel1.Store(0)
	sp.revoked.Store(false)
	sp.rearmed.Store(false)
}

// tracedLock is the timing wrapper around one stripe's SlimBravo.
// Unarmed and not counting, it adds two loads to each lock call.
type tracedLock struct {
	inner    *rwlock.SlimBravo
	arm      atomic.Pointer[opSpan]
	counting *atomic.Bool
	calls    atomic.Uint64 // acquisitions while counting
	_        [32]byte      // one wrapper per cache line
}

func (l *tracedLock) RLock() rwlock.RToken {
	if l.counting.Load() {
		l.calls.Add(1)
	}
	sp := l.arm.Load()
	if sp == nil {
		return l.inner.RLock()
	}
	sp.claims.Add(1)
	biased := l.inner.ReadBiased()
	t0 := mono()
	t := l.inner.RLock()
	t1 := mono()
	sp.acq0.Store(t0)
	sp.acq1.Store(t1)
	if !biased && l.inner.ReadBiased() {
		sp.rearmed.Store(true)
	}
	return t
}

func (l *tracedLock) RUnlock(t rwlock.RToken) {
	sp := l.arm.Load()
	if sp == nil {
		l.inner.RUnlock(t)
		return
	}
	sp.claims.Add(1)
	t0 := mono()
	l.inner.RUnlock(t)
	t1 := mono()
	sp.rel0.Store(t0)
	sp.rel1.Store(t1)
}

func (l *tracedLock) Lock() rwlock.WToken {
	if l.counting.Load() {
		l.calls.Add(1)
	}
	sp := l.arm.Load()
	if sp == nil {
		return l.inner.Lock()
	}
	sp.claims.Add(1)
	if l.inner.ReadBiased() {
		sp.revoked.Store(true)
	}
	t0 := mono()
	t := l.inner.Lock()
	t1 := mono()
	sp.acq0.Store(t0)
	sp.acq1.Store(t1)
	return t
}

func (l *tracedLock) Unlock(t rwlock.WToken) {
	sp := l.arm.Load()
	if sp == nil {
		l.inner.Unlock(t)
		return
	}
	sp.claims.Add(1)
	t0 := mono()
	l.inner.Unlock(t)
	t1 := mono()
	sp.rel0.Store(t0)
	sp.rel1.Store(t1)
}

// span is one kept sample: the public call [start, end] and its two
// lock-call children.  direct marks lock-hot spans, whose children
// share the public call's boundary clock reads.
type span struct {
	write, direct, revoked, rearmed    bool
	start, end, acq0, acq1, rel0, rel1 int64
}

// keptSpans bounds the spans each client keeps for the spans file.
const keptSpans = 4096

// clientTrace is one client's tracing state.
type clientTrace struct {
	eps       int64
	ring      [256]opSpan // reused round-robin; 256 samples apart
	next      int
	sampled   uint64
	discarded uint64
	spans     []span

	getSelf, updSelf, rlock, runlock, hold, lock, unlock hist
	reads, writes, revoked, rearmed                      uint64
}

func (tr *clientTrace) record(s span) {
	e := tr.eps
	acq := s.acq1 - s.acq0 - e
	rel := s.rel1 - s.rel0 - e
	inside := s.rel0 - s.acq1 - e
	self := inside
	if !s.direct {
		// The public call's own code: its span minus the two lock
		// spans and the three clock reads bounding the pieces.
		self = (s.end - s.start) - (s.acq1 - s.acq0) - (s.rel1 - s.rel0) - 3*e
	}
	if s.write {
		tr.writes++
		tr.updSelf.add(self)
		tr.lock.add(acq)
		tr.unlock.add(rel)
		if s.revoked {
			tr.revoked++
		}
	} else {
		tr.reads++
		tr.getSelf.add(self)
		tr.rlock.add(acq)
		tr.runlock.add(rel)
		tr.hold.add(inside)
		if s.rearmed {
			tr.rearmed++
		}
	}
	if len(tr.spans) < keptSpans {
		tr.spans = append(tr.spans, s)
	}
}

// kvTracedSys drives a map whose stripes are tracedLocks.
type kvTracedSys struct{ *kvSys }

func (s kvTracedSys) step(c *client, w uint32, sample bool) {
	if !sample {
		s.kvSys.step(c, w, false)
		return
	}
	tr := c.tr
	tr.sampled++
	k := uint64(w >> 1)
	l := s.m.LockOf(k).(*tracedLock)
	sp := &tr.ring[tr.next%len(tr.ring)]
	tr.next++
	sp.reset()
	if !l.arm.CompareAndSwap(nil, sp) {
		// The other client is tracing a call on this stripe.
		tr.discarded++
		s.kvSys.step(c, w, false)
		return
	}
	start := mono()
	if w&1 == 0 {
		if _, ok := s.m.Get(k); !ok {
			c.failed++
		}
	} else {
		s.m.Update(k, incr)
		c.acked++
	}
	end := mono()
	l.arm.Store(nil)
	// Copy first, then check claims: a foreign call counts itself
	// before storing, so claims == 2 here means the copy is clean.
	rec := span{write: w&1 == 1, start: start, end: end,
		acq0: sp.acq0.Load(), acq1: sp.acq1.Load(), rel0: sp.rel0.Load(), rel1: sp.rel1.Load(),
		revoked: sp.revoked.Load(), rearmed: sp.rearmed.Load()}
	if sp.claims.Load() != 2 {
		tr.discarded++
		return
	}
	tr.record(rec)
}

// newTracedKV builds the kv map with a tracedLock around each stripe's
// NewSlimBravo; the wrappers are returned for the call counts.
func newTracedKV(counting *atomic.Bool) (*kvSys, []*tracedLock) {
	var ls []*tracedLock
	s := newKV(func() rwlock.RWLock {
		l := &tracedLock{inner: rwlock.NewSlimBravo(), counting: counting}
		ls = append(ls, l)
		return l
	})
	return s, ls
}

// countingSys counts stripe-lock acquisitions from the end of
// construction to the end of the drive (its check's own calls are not
// counted).
type countingSys struct {
	*kvSys
	counting *atomic.Bool
	locks    []*tracedLock
	calls    *uint64
}

func (s countingSys) check(clients []*client) uint64 {
	s.counting.Store(false)
	for _, l := range s.locks {
		*s.calls += l.calls.Load()
	}
	return s.kvSys.check(clients)
}

// hotTracedSys times the lock-hot passage from the client; the lock is
// built WithStats.
type hotTracedSys struct{ *hotSys }

func (s hotTracedSys) step(c *client, w uint32, sample bool) {
	if !sample {
		s.hotSys.step(c, w, false)
		return
	}
	c.tr.sampled++
	if w&1 == 0 {
		t0 := mono()
		t := s.l.RLock()
		t1 := mono()
		ok := s.equal()
		t2 := mono()
		s.l.RUnlock(t)
		t3 := mono()
		if !ok {
			c.failed++
		}
		c.tr.record(span{direct: true, start: t0, end: t3, acq0: t0, acq1: t1, rel0: t2, rel1: t3})
		return
	}
	t0 := mono()
	t := s.l.Lock()
	t1 := mono()
	s.bump()
	t2 := mono()
	s.l.Unlock(t)
	t3 := mono()
	c.acked++
	c.tr.record(span{write: true, direct: true, start: t0, end: t3, acq0: t0, acq1: t1, rel0: t2, rel1: t3})
}

// traced runs the per-layer passes of w within about seconds: an
// untraced pass (the base of trace.ops_ratio), the traced pass, a
// lock-call counting pass on kv workloads, the sync.RWMutex reference
// pass, and the single-goroutine layer ledger.
func traced(w workload, clients []*client, seconds float64, spansDir string, seed uint64) (*report, error) {
	eps := clockCost()
	for _, c := range clients {
		c.tr = &clientTrace{eps: eps}
	}
	r := &report{}
	part := seconds * 0.3

	base := runPhase(w.builder(nil), clients, 2, 1, part)
	r.count(base)

	var tp *phaseResult
	var stat rwlock.LockStatsSnapshot
	var callsPerOp float64
	if w.kv() {
		counting := new(atomic.Bool)
		tp = runPhase(func() sut {
			s, _ := newTracedKV(counting)
			return kvTracedSys{s}
		}, clients, 2, 1, part)
		var calls uint64
		cp := runPhase(func() sut {
			s, ls := newTracedKV(counting)
			counting.Store(true)
			return countingSys{s, counting, ls, &calls}
		}, clients, 1, 1, seconds*0.05)
		r.count(cp)
		callsPerOp = float64(calls) / float64(cp.attempted)
	} else {
		st := new(rwlock.LockStats)
		tp = runPhase(func() sut {
			return hotTracedSys{newHot(rwlock.NewBravoMWSF(rwlock.WithStats(st)))}
		}, clients, 2, 1, part)
		stat = st.Snapshot()
		callsPerOp = float64(stat.ReadAcquires+stat.WriteAcquires) / float64(tp.attempted)
	}
	r.count(tp)

	agg := &clientTrace{}
	for _, c := range clients {
		t := c.tr
		for _, h := range []struct{ dst, src *hist }{
			{&agg.getSelf, &t.getSelf}, {&agg.updSelf, &t.updSelf}, {&agg.rlock, &t.rlock},
			{&agg.runlock, &t.runlock}, {&agg.hold, &t.hold}, {&agg.lock, &t.lock}, {&agg.unlock, &t.unlock},
		} {
			h.dst.merge(h.src)
		}
		agg.sampled += t.sampled
		agg.discarded += t.discarded
		agg.reads += t.reads
		agg.writes += t.writes
		agg.revoked += t.revoked
		agg.rearmed += t.rearmed
	}

	ref := runPhase(w.builder(func() rwlock.RWLock { return rwlock.NewRWMutexLock() }), clients, 2, 1, part)
	r.count(ref)

	slim := "n/a: the Slim stripe lock has no such layer"
	rn := fmt.Sprintf("%d kept read spans", agg.reads)
	wn := fmt.Sprintf("%d kept write spans", agg.writes)
	if !w.kv() {
		// No rwmap here: the layer above the lock is the record check.
		rn += "; self = the record check inside the passage"
		wn += "; self = the record increment inside the passage"
	}
	r.add("rwmap.get.self_ns.p50", agg.getSelf.quantile(0.50), "ns", rn)
	r.add("rwmap.get.self_ns.p99", agg.getSelf.quantile(0.99), "ns", rn)
	r.add("rwmap.update.self_ns.p50", agg.updSelf.quantile(0.50), "ns", wn)
	r.add("rwmap.update.self_ns.p99", agg.updSelf.quantile(0.99), "ns", wn)
	r.add("rwmap.lock_calls_per_op", callsPerOp, "count/op", "lock acquisitions per call")
	r.add("rwlock.rlock_ns.p50", agg.rlock.quantile(0.50), "ns", rn)
	r.add("rwlock.rlock_ns.p99", agg.rlock.quantile(0.99), "ns", rn)
	r.add("rwlock.runlock_ns.p50", agg.runlock.quantile(0.50), "ns", rn)
	r.add("rwlock.hold_ns.p50", agg.hold.quantile(0.50), "ns", rn)
	r.add("rwlock.lock_ns.p50", agg.lock.quantile(0.50), "ns", wn)
	r.add("rwlock.lock_ns.p99", agg.lock.quantile(0.99), "ns", wn)
	r.add("rwlock.unlock_ns.p50", agg.unlock.quantile(0.50), "ns", wn)
	if w.kv() {
		r.add("bravo.revocations_per_write", ratio(agg.revoked, agg.writes), "count/op", "Slim bias armed at a sampled Update's Lock")
		r.add("bravo.rearms_per_kread", 1000*ratio(agg.rearmed, agg.reads), "count/kop", "Slim bias re-armed across a sampled Get's RLock")
		r.add("core.read_contended_ratio", 0, "ratio", slim)
		r.add("arbitration.write_contended_ratio", 0, "ratio", slim)
		r.add("arbitration.queue_depth_max", 0, "count", slim)
		r.add("waitcell.parks_per_kop", 0, "count/kop", slim)
	} else {
		r.add("bravo.revocations_per_write", ratio(stat.Revocations, stat.WriteAcquires), "count/op", "WithStats")
		r.add("bravo.rearms_per_kread", 1000*ratio(stat.ReArms, stat.ReadAcquires), "count/kop", "WithStats")
		r.add("core.read_contended_ratio", ratio(stat.ReadContended, stat.ReadAcquires), "ratio", "WithStats")
		r.add("arbitration.write_contended_ratio", ratio(stat.WriteContended, stat.WriteAcquires), "ratio", "WithStats")
		r.add("arbitration.queue_depth_max", float64(stat.QueueDepthMax), "count", "WithStats")
		r.add("waitcell.parks_per_kop", 1000*ratio(stat.Parks, tp.attempted), "count/kop", "WithStats")
	}
	r.add("trace.ops_ratio", tp.opsPerSec()/base.opsPerSec(), "ratio",
		fmt.Sprintf("traced %.0f / untraced %.0f calls/s", tp.opsPerSec(), base.opsPerSec()))
	r.add("trace.discard_ratio", ratio(agg.discarded, agg.sampled), "ratio", "sampled kv calls whose stripe the other client touched while armed")
	r.add("ref.rwmutex.ops_per_s", ref.opsPerSec(), "1/s", "sync.RWMutex as the lock")
	r.add("ref.rwmutex.read_p99_ns", ref.latency(readP99), "ns", fmt.Sprintf("%d samples", ref.rd.n))
	r.add("ref.rwmutex.write_p99_ns", ref.latency(writeP99), "ns", fmt.Sprintf("%d samples", ref.wr.n))
	runLedger(r)

	if spansDir != "" {
		if err := writeSpans(filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed)), w, clients); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// writeSpans writes each client's kept spans as JSON lines: one parent
// span per public call and one child per lock call, with ids and
// parent ids, in nanoseconds since the benchmark started.
func writeSpans(path string, w workload, clients []*client) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	parent, acq, rel := "rwmap.get", "rwlock.rlock", "rwlock.runlock"
	if !w.kv() {
		parent = "passage.read"
	}
	id := 0
	for ci, c := range clients {
		for _, s := range c.tr.spans {
			p, a, r := parent, acq, rel
			if s.write {
				p, a, r = "rwmap.update", "rwlock.lock", "rwlock.unlock"
				if !w.kv() {
					p = "passage.write"
				}
			}
			id++
			pid := id
			fmt.Fprintf(bw, `{"id":%d,"client":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n", pid, ci, p, s.start, s.end)
			id++
			fmt.Fprintf(bw, `{"id":%d,"parent":%d,"client":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n", id, pid, ci, a, s.acq0, s.acq1)
			id++
			fmt.Fprintf(bw, `{"id":%d,"parent":%d,"client":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n", id, pid, ci, r, s.rel0, s.rel1)
		}
	}
	return bw.Flush()
}
