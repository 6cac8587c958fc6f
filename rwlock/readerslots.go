package rwlock

import (
	"math/bits"
	"runtime"
	"sync/atomic"
)

// This file implements the visible-readers table of the BRAVO reader
// fast path (Dice & Kogan, "BRAVO — Biased Locking for Reader-Writer
// Locks", USENIX ATC 2019, arXiv:1810.01553).  The table has two
// deployments, one per reader fast-path build:
//
//   - PRIVATE: each Bravo wrapper owns a machine-sized table, which
//     buys the fewest claim collisions per lock but costs
//     O(GOMAXPROCS) cache lines PER LOCK INSTANCE — the right call for
//     a handful of hot locks, dead on arrival at 10^5-10^6 lock
//     instances (a sharded map's stripe grid).
//   - The SLIM ARENA (slim.go): one package-wide table that every
//     SlimBravo and SlimEpoch publishes in, the BRAVO paper's
//     original global-table design.  Slots are tagged with the
//     claiming lock's owner id, so a revoking writer's drain waits
//     only on its own lock's readers; the per-lock cost drops to one
//     integer id.
//
// Both deployments run the same code: a private table is simply an
// arena with a single owner.  Each slot is a one-word presence flag
// alone on its cache line (0 = free, otherwise the owner id of the
// lock whose reader is inside).  A publishing reader dirties only its
// own line, so readers scale with cores instead of serializing on the
// packed [writer-waiting, reader-count] word that every reader of the
// Bhatt & Jayanti locks must fetch&add.
//
// The arena is split into one REGION per P (GOMAXPROCS at construction,
// rounded up to a power of two).  A reader claims in the region of the
// P it runs on, at an offset hashed from the lock's owner id — the
// BRAVO paper's hash of (thread, lock) — so a goroutine that re-reads a
// lock keeps writing a line its own core already owns.  Writers pay for
// that reader scalability with a scan during bias revocation, but the
// scan visits only the slots the lock's claims can occupy: regions ×
// slotProbes slots (6 on the 2-P Slim arena), whatever the arena
// size.  The price is a per-(P, lock) bound: at most slotProbes readers
// of one lock that claimed on the same P are on the fast path at once,
// and the rest take their lock's slow path.

// slotProbes is how many adjacent slots of its region a reader tries
// to claim before giving up and taking the slow path.  A small bound
// keeps the fast path O(1) and the revocation scan short.  Every
// region has at least four slots (see newReaderTable), so the probes
// are distinct slots.
const slotProbes = 3

// readerTable is a fixed-size power-of-two arena of reader-presence
// slots.  Each slot is a waitCell: the revoking writer's drain is a
// wait on the slot, and a fast-path reader's release is the matching
// wake, so a drain spins and then parks like every other wait in the
// package.
//
// A table is safe for concurrent use by any number of locks and
// goroutines.  Lock constructors draw a unique owner id from the
// table, and every claim is tagged with it, so one lock's revocation
// never waits on another lock's readers — at worst it reads past
// their slots.
type readerTable struct {
	slots []waitCell
	// rmask is the region count minus one (the count is a power of
	// two): a claim made on P p goes to region p&rmask.
	rmask uint64
	// span is the slot count of one region, a power of two >= 4.
	span uint64
	_    [24]byte
	// nextID hands out per-lock owner ids (contended only at lock
	// construction; padded off the read-only header above so a
	// construction burst does not invalidate the fast path's header
	// loads).
	nextID atomic.Int64
	_      [56]byte
}

// newReaderTable sizes the table to at least min entries and at least
// four slots per P, rounded up to a power of two, and splits it into
// nextPow2(GOMAXPROCS) regions.  Both counts are powers of two and
// the size is at least 4·nextPow2(GOMAXPROCS), so every region has at
// least four slots.
func newReaderTable(min int) *readerTable {
	procs := runtime.GOMAXPROCS(0)
	n := 4 * procs
	if n < min {
		n = min
	}
	if n < 8 {
		n = 8
	}
	n = 1 << bits.Len(uint(n-1))
	regions := 1 << bits.Len(uint(procs-1))
	return &readerTable{
		slots: make([]waitCell, n),
		rmask: uint64(regions - 1),
		span:  uint64(n / regions),
	}
}

// assignID draws a fresh owner id for a lock built over this table.
// Ids are nonzero (0 is the free-slot value) and their low 32 bits are
// nonzero too, so the Slim locks' truncated ids stay valid (slim.go).
func (t *readerTable) assignID() int64 {
	for {
		id := t.nextID.Add(1)
		if uint32(id) != 0 {
			return id
		}
	}
}

// ownerHash spreads owner ids over a region: the high bits of a
// Fibonacci-hash product, so consecutive ids (a stripe grid's locks)
// start their probe runs far apart.
func ownerHash(id int64) uint64 { return uint64(id) * 0x9e3779b97f4a7c15 >> 40 }

// probeSlot is the index of the i-th slot a reader of the lock with
// owner hash h tries in region r (taken modulo the region count).
// tryClaim and both scans go through it, so a claim — from any P,
// with a stale P id after unpinning, or after a GOMAXPROCS change —
// can land only on a slot the scans read.
func (t *readerTable) probeSlot(h, r, i uint64) uint64 {
	return (r&t.rmask)*t.span + (h+i)&(t.span-1)
}

// tryClaim publishes a reader of the lock that owns id into a free
// slot of the current P's region and returns its index.  The P id is
// only a placement hint — the goroutine may migrate as soon as it is
// unpinned — which is safe because the scans cover every region.
func (t *readerTable) tryClaim(id int64) (int64, bool) {
	r := procPin()
	procUnpin()
	return t.claimIn(id, uint64(r))
}

// claimIn is tryClaim in region r (taken modulo the region count).
// (The claim CAS needs no wake: setting a slot busy satisfies nobody's
// wait.)
func (t *readerTable) claimIn(id int64, r uint64) (int64, bool) {
	h := ownerHash(id)
	for i := uint64(0); i < slotProbes; i++ {
		idx := t.probeSlot(h, r, i)
		s := &t.slots[idx]
		if s.load() == 0 && s.cas(0, id) {
			return int64(idx), true
		}
	}
	return 0, false
}

// release frees a slot claimed by tryClaim, waking a writer whose
// drain parked on it.  When no drain is in progress (the common case)
// the wake probe is one load of the slot's cold line.
func (t *readerTable) release(idx int64) { t.slots[idx].storeWake(0) }

// idleFor is the non-blocking face of drainFor: one scan of id's
// candidate slots, no waits, reporting whether none was claimed by
// id's lock at the instant it was read.  A TryLock-path revocation
// uses it to abort (and restore the bias) instead of waiting for
// published readers to leave.
func (t *readerTable) idleFor(id int64) bool {
	h := ownerHash(id)
	for r := uint64(0); r <= t.rmask; r++ {
		for i := uint64(0); i < slotProbes; i++ {
			if t.slots[t.probeSlot(h, r, i)].load() == id {
				return false
			}
		}
	}
	return true
}

// drainFor waits until none of id's candidate slots (its probe run in
// every region) holds id and returns how many it found occupied — the
// revocation-cost signal that sizes Bravo's re-arm throttle.  Only a
// revoking writer of the owning lock calls drainFor, strictly after
// closing its fast path (clearing the bias flag or advancing the
// epoch): readers that claimed a slot before the close will be waited
// for, and readers that claim one afterwards observe the closed fast
// path, back out, and head for the slow path, so each owned slot
// quiesces and the scan terminates.  Candidates held by other locks
// are skipped without waiting — on the Slim arena a drain costs
// regions × slotProbes loads plus only its OWN readers' residual
// passages.
//
// (A skipped-then-reclaimed slot is benign: a reader of this lock
// that claims a slot after the scan passed it rechecks the closed
// fast path and backs out before entering, the same Dekker argument
// the per-slot wait relies on.)
func (t *readerTable) drainFor(id int64) (busy int) {
	notID := func(v int64) bool { return v != id }
	h := ownerHash(id)
	for r := uint64(0); r <= t.rmask; r++ {
		for i := uint64(0); i < slotProbes; i++ {
			s := &t.slots[t.probeSlot(h, r, i)]
			if s.load() != id {
				continue
			}
			busy++
			s.waitUntil(notID)
		}
	}
	return busy
}
