package rwlock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// bravoLocks returns one Bravo wrapper per inner discipline, keyed the
// way the harness names them.
func bravoLocks() map[string]*Bravo {
	return map[string]*Bravo{
		"Bravo(MWSF)": NewBravoMWSF(),
		"Bravo(MWRP)": NewBravoMWRP(),
		"Bravo(MWWP)": NewBravoMWWP(),
	}
}

// TestBravoFastPathPublishes: on a fresh (read-biased) wrapper a
// reader must take the fast path — its token carries the slot tag and
// the inner lock is never touched — and RUnlock must free the slot.
func TestBravoFastPathPublishes(t *testing.T) {
	for name, b := range bravoLocks() {
		t.Run(name, func(t *testing.T) {
			if !b.ReadBiased() {
				t.Fatal("fresh Bravo lock is not read-biased")
			}
			tok := b.RLock()
			if tok.side != bravoFastSide {
				t.Fatalf("reader token side = %d, want fast-path tag %d", tok.side, bravoFastSide)
			}
			if got := b.slots.slots[tok.id].v.Load(); got != 1 {
				t.Fatalf("claimed slot %d holds %d, want 1", tok.id, got)
			}
			b.RUnlock(tok)
			if got := b.slots.slots[tok.id].v.Load(); got != 0 {
				t.Fatalf("released slot %d holds %d, want 0", tok.id, got)
			}
		})
	}
}

// TestBravoWriterRevokesBias: a writer arriving while a fast-path
// reader is inside must clear RBias and block in the revocation scan
// until that reader leaves — the wrapper's mutual-exclusion handoff.
func TestBravoWriterRevokesBias(t *testing.T) {
	for name, b := range bravoLocks() {
		t.Run(name, func(t *testing.T) {
			rt := b.RLock()
			if rt.side != bravoFastSide {
				t.Fatalf("reader did not take the fast path (side %d)", rt.side)
			}
			locked := make(chan WToken)
			go func() { locked <- b.Lock() }()
			select {
			case <-locked:
				t.Fatal("writer finished revocation with a fast-path reader inside")
			case <-time.After(10 * time.Millisecond):
			}
			b.RUnlock(rt)
			var wt WToken
			select {
			case wt = <-locked:
			case <-time.After(2 * time.Second):
				t.Fatal("writer not released by the fast-path reader's exit")
			}
			if b.ReadBiased() {
				t.Fatal("RBias still set after a writer's revocation")
			}
			// With the bias down, new readers must go through the inner
			// lock — and therefore wait for the writer.
			entered := make(chan RToken)
			go func() { entered <- b.RLock() }()
			select {
			case <-entered:
				t.Fatal("reader entered while the writer held the inner lock")
			case <-time.After(10 * time.Millisecond):
			}
			b.Unlock(wt)
			rt2 := <-entered
			if rt2.side == bravoFastSide {
				t.Fatal("reader took the fast path while the bias was revoked")
			}
			b.RUnlock(rt2)
		})
	}
}

// TestBravoBiasRearm: once the revocation-cost throttle expires, a
// slow-path reader re-arms the bias, and the next reader is fast again.
func TestBravoBiasRearm(t *testing.T) {
	b := NewBravoMWSF()
	wt := b.Lock() // revokes the (initial) bias
	b.Unlock(wt)
	if b.ReadBiased() {
		t.Fatal("bias survived a write passage")
	}
	deadline := time.Now().Add(5 * time.Second)
	for !b.ReadBiased() {
		if time.Now().After(deadline) {
			t.Fatal("bias never re-armed after the inhibit window")
		}
		tok := b.RLock() // slow path; re-arms once inhibitUntil passes
		b.RUnlock(tok)
	}
	tok := b.RLock()
	if tok.side != bravoFastSide {
		t.Fatalf("reader after re-arm took side %d, want fast path", tok.side)
	}
	b.RUnlock(tok)
}

// TestBravoRevocationRace hammers the bias flip-flop itself: writers
// continuously revoke while readers bounce between fast and slow
// paths.  Writers mutate a plain integer through an odd intermediate
// state; under `go test -race` any fast-path reader overlapping a
// writer's critical section is also a detected data race.
func TestBravoRevocationRace(t *testing.T) {
	const (
		writers = 3
		readers = 6
		iters   = 2000
	)
	for name, b := range bravoLocks() {
		b := b
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var data int64 // guarded only by b
			var fail atomic.Bool
			var fastReads atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						tok := b.Lock()
						data++ // odd: no reader may observe this
						data++
						b.Unlock(tok)
					}
				}()
			}
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						tok := b.RLock()
						if tok.side == bravoFastSide {
							fastReads.Add(1)
						}
						if data%2 != 0 {
							fail.Store(true)
						}
						b.RUnlock(tok)
					}
				}()
			}
			wg.Wait()
			if fail.Load() {
				t.Fatal("reader observed a writer mid-update across a bias transition")
			}
			if want := int64(2 * writers * iters); data != want {
				t.Fatalf("data = %d, want %d (lost writer updates)", data, want)
			}
		})
	}
}

// TestBravoFastPathSkipsInnerLock proves the fast path really bypasses
// the inner lock: readers sail through while a stalled SLOW-path
// holder... cannot exist, so instead we pin the inner lock's write
// side directly and verify a biased reader is unaffected only before
// the writer reaches the wrapper.  Concretely: readers publishing in
// the table never move the inner lock's reader count.
func TestBravoFastPathSkipsInnerLock(t *testing.T) {
	inner := NewMWSF()
	b := NewBravo(inner)
	tok := b.RLock()
	if tok.side != bravoFastSide {
		t.Fatalf("expected fast path, got side %d", tok.side)
	}
	// The inner MWSF must believe it has no readers: a writer on the
	// INNER lock alone must pass its waiting room immediately.
	done := make(chan struct{})
	go func() {
		wt := inner.Lock()
		inner.Unlock(wt)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("fast-path reader registered in the inner lock")
	}
	b.RUnlock(tok)
}

// TestBravoSlowPathUnderWriterLoad: with writers continuously holding
// the lock, the throttle keeps the bias down and reads flow through
// the inner discipline (the graceful-degradation property).
func TestBravoSlowPathUnderWriterLoad(t *testing.T) {
	b := NewBravoMWSF()
	wt := b.Lock() // bias revoked; inhibitUntil set
	// A reader queued behind the writer takes the slow path.
	entered := make(chan RToken)
	go func() { entered <- b.RLock() }()
	select {
	case <-entered:
		t.Fatal("reader entered while the writer held the lock")
	case <-time.After(10 * time.Millisecond):
	}
	b.Unlock(wt)
	rt := <-entered
	if rt.side == bravoFastSide {
		t.Fatal("queued reader cannot have used the fast path")
	}
	b.RUnlock(rt)
}

// TestBravoTokensAreTransferable: fast-path tokens, like every token
// in the package, are plain values releasable from another goroutine.
func TestBravoTokensAreTransferable(t *testing.T) {
	b := NewBravoMWWP()
	tokCh := make(chan RToken)
	go func() { tokCh <- b.RLock() }()
	tok := <-tokCh
	b.RUnlock(tok)
	wtCh := make(chan WToken)
	go func() { wtCh <- b.Lock() }()
	b.Unlock(<-wtCh)
}

// TestBravoNestedWrapPanics: Bravo(Bravo(L)) would misroute fast-path
// tokens, so the constructor refuses it.
func TestBravoNestedWrapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic wrapping a *Bravo in NewBravo")
		}
	}()
	NewBravo(NewBravoMWSF())
}

// TestBravoNilInnerDefaults: NewBravo(nil) matches NewGuard's default.
func TestBravoNilInnerDefaults(t *testing.T) {
	b := NewBravo(nil)
	if _, ok := b.Inner().(*MWSF); !ok {
		t.Fatalf("default inner lock is %T, want *MWSF", b.Inner())
	}
	tok := b.RLock()
	b.RUnlock(tok)
}

// TestReaderSlotsClaimReleaseDrain exercises the table directly,
// under both wait strategies: a drain must wait on a claim held in
// every region, and a parked drain must be woken by each release.
func TestReaderSlotsClaimReleaseDrain(t *testing.T) {
	for _, strat := range []WaitStrategy{SpinYield, SpinThenPark} {
		t.Run(strat.String(), func(t *testing.T) {
			rs := newReaderTable(16, strat)
			if len(rs.slots)&(len(rs.slots)-1) != 0 || len(rs.slots) < 16 {
				t.Fatalf("table size %d: want power of two >= 16", len(rs.slots))
			}
			id := rs.assignID()
			idx, ok := rs.tryClaim(id)
			if !ok {
				t.Fatal("claim on the current P failed on an empty table")
			}
			if rs.idleFor(id) {
				t.Fatal("idleFor missed a claim made on the current P")
			}
			rs.release(idx)
			var held []int64
			for r := uint64(0); r <= rs.rmask; r++ {
				idx, ok := rs.claimIn(id, r)
				if !ok {
					t.Fatalf("claim in region %d failed on an empty table", r)
				}
				held = append(held, idx)
			}
			// A drain for a DIFFERENT owner must skip the claimed slots
			// entirely — the shared-arena isolation property.
			if other := rs.drainFor(id + 1); other != 0 {
				t.Fatalf("drainFor(other) waited on %d foreign slots", other)
			}
			drained := make(chan int)
			go func() { drained <- rs.drainFor(id) }()
			for r, idx := range held {
				select {
				case <-drained:
					t.Fatalf("drain completed with the claim in region %d still held", r)
				case <-time.After(10 * time.Millisecond):
				}
				rs.release(idx)
			}
			select {
			case busy := <-drained:
				// A drain that reaches a region only after its release
				// finds that slot free, so only the bounds are exact.
				if busy < 1 || busy > len(held) {
					t.Fatalf("drain reported %d busy slots, want 1..%d", busy, len(held))
				}
			case <-time.After(2 * time.Second):
				t.Fatal("drain did not observe the releases")
			}
		})
	}
}

// TestReaderTableClaimsInCandidateSet pins the invariant the P-local
// layout rests on: whatever region a claim lands in — any P id,
// including ids past the region count (a stale id after unpinning, or
// GOMAXPROCS raised after construction) — the slot it takes is one the
// revocation scan reads.  Claims are driven through claimIn, the same
// index path tryClaim uses, so every region is covered without pinning.
func TestReaderTableClaimsInCandidateSet(t *testing.T) {
	for _, size := range []int{0, 64, 1024} {
		rs := newReaderTable(size, SpinYield)
		regions := rs.rmask + 1
		if rs.span < 4 || rs.span*regions != uint64(len(rs.slots)) {
			t.Fatalf("size %d: %d regions of %d slots over %d, want regions of at least 4 tiling the arena", size, regions, rs.span, len(rs.slots))
		}
		ids := []int64{1, 2, 3, 17, 255, 1 << 20, slimIDMask, 1<<40 + 7}
		for i := 0; i < 8; i++ {
			ids = append(ids, rs.assignID())
		}
		for _, id := range ids {
			for r := uint64(0); r < 2*regions+1; r++ {
				// Take every slot a claim by id can take in r: the probe
				// run must be slotProbes distinct slots of region r%regions.
				var run []int64
				for {
					idx, ok := rs.claimIn(id, r)
					if !ok {
						break
					}
					if got := uint64(idx) / rs.span; got != r%regions {
						t.Fatalf("id %d: claim in region %d landed in region %d", id, r, got)
					}
					run = append(run, idx)
				}
				if len(run) != slotProbes {
					t.Fatalf("id %d region %d: %d claims fit, want slotProbes (%d)", id, r, len(run), slotProbes)
				}
				for _, idx := range run {
					rs.release(idx)
				}
				// Hold each slot of the run alone — claims fill the run
				// in probe order, so claim up to it and release the ones
				// before it — and the scan must see it.
				for j, idx := range run {
					for k := 0; k <= j; k++ {
						rs.claimIn(id, r)
					}
					for k := 0; k < j; k++ {
						rs.release(run[k])
					}
					if rs.idleFor(id) {
						t.Fatalf("id %d region %d: idleFor missed a claim on slot %d", id, r, idx)
					}
					rs.release(idx)
					if !rs.idleFor(id) {
						t.Fatalf("id %d region %d: idleFor reports a claim after releasing slot %d", id, r, idx)
					}
				}
			}
		}
	}
}
