// Package rwmap provides a striped concurrent map — the serving-tier
// layer over the rwlock package's lock grid.
//
// A Map hashes each key (hash/maphash.Comparable, per-Map seed) to one
// of a power-of-two number of stripes; each stripe is an independent
// Go map guarded by its own rwlock.RWLock.  Reads on different
// stripes never touch the same lock, so a read-mostly key space
// scales with the stripe count, and a hot key's writer storms stay
// confined to that key's stripe.  The per-stripe locks come from a
// caller-supplied factory (WithLockFactory) — any lock in the rwlock
// registry works — and default to rwlock.SlimBravo, the
// 16-byte-per-instance build that publishes its readers in the rwlock
// package's one reader arena and makes 10^5–10^6-stripe grids
// affordable (see rwlock.SlimBravo for the trade).
//
// Writes go through the lock's closure write path (rwlock.Write) when
// the stripe lock flat-combines, so such a stripe batches its
// mutations with every other closure write on that lock; on every
// other lock the token path is the same semantics with zero allocations.  Update
// exposes read-modify-write without a Get/Put race, and GetOrCompute
// fills a missing entry under a single write acquisition.
//
// For introspection, Map.Heatmap returns a per-stripe snapshot —
// entry count and lock kind per stripe, ranked by entries — which is
// how a Slim-lock grid is observed, since Slim locks sit outside the
// rwlock stats seam.  The rwstats package serves it over expvar,
// Prometheus text format, and JSON.
//
// The zero Map is not ready; construct with New.  All methods are
// safe for concurrent use.  Range takes no global snapshot: it locks
// one stripe at a time, so it observes a state in which each stripe
// is internally consistent but cross-stripe mutations concurrent with
// the walk may be partially visible — the usual striped-map contract.
package rwmap

import (
	"hash/maphash"
	"math/bits"

	"rwsync/rwlock"
)

// maxStripes caps the grid at 2^20: past a million stripes the
// per-stripe Go map headers dominate any lock-footprint win, and the
// mask arithmetic below assumes the count fits comfortably in 32 bits.
const maxStripes = 1 << 20

// config collects the construction options; generic New cannot hang
// methods off a generic options type, so options are plain funcs over
// this struct.
type config struct {
	stripes int
	factory func() rwlock.RWLock
}

// Option configures New.
type Option func(*config)

// WithStripes sets the stripe count.  The count is clamped to
// [1, 1<<20] and rounded up to a power of two (the stripe index is a
// mask of the key hash, so a non-power-of-two count would bias the
// distribution).
func WithStripes(n int) Option {
	return func(c *config) { c.stripes = n }
}

// WithLockFactory sets the constructor used for every stripe's lock.
// The factory runs once per stripe at New time; at large stripe
// counts prefer constructors whose per-instance footprint is small
// (rwlock.NewSlimBravo, rwlock.NewSlimEpoch — 16 bytes each on the
// package's reader arena) over the full wrappers (kilobytes each).
func WithLockFactory(f func() rwlock.RWLock) Option {
	if f == nil {
		panic("rwmap: WithLockFactory needs a non-nil factory")
	}
	return func(c *config) { c.factory = f }
}

// stripe is one shard: its lock, fixed at New, and the shard map.
// Only a flat-combining lock gets fw: every lock in the registry
// implements FuncWriter, but on a non-combining lock Write is
// Lock/cs/Unlock with the closure forced to the heap, while the token
// path is the same semantics allocation-free.  lock and m come first
// so a read touches only the stripe's first 24 bytes.
type stripe[K comparable, V any] struct {
	lock rwlock.RWLock
	m    map[K]V
	fw   rwlock.FuncWriter // non-nil only when lock combines closure writes
}

// apply runs one read-modify-write against the shard map; the caller
// holds the stripe's write mode.  f runs before any mutation, so a
// panicking f leaves the entry unchanged.
func (s *stripe[K, V]) apply(k K, f func(v V, ok bool) (V, bool)) {
	v, ok := s.m[k]
	if nv, keep := f(v, ok); keep {
		s.m[k] = nv
	} else if ok {
		delete(s.m, k)
	}
}

// The helpers below run caller code under the stripe lock and release
// it with defer, so a panic that the caller recovers does not leave
// the stripe locked for every later operation on it.

// update is apply under the stripe's write lock.
func (s *stripe[K, V]) update(k K, f func(v V, ok bool) (V, bool)) {
	t := s.lock.Lock()
	defer s.lock.Unlock(t)
	s.apply(k, f)
}

// read runs f on k's entry under the stripe's read lock.
func (s *stripe[K, V]) read(k K, f func(v V, ok bool)) {
	t := s.lock.RLock()
	defer s.lock.RUnlock(t)
	v, ok := s.m[k]
	f(v, ok)
}

// compute is GetOrCompute's write half: re-check k under the write
// lock and store fill's value on a miss.
func (s *stripe[K, V]) compute(k K, fill func() V) (V, bool) {
	t := s.lock.Lock()
	defer s.lock.Unlock(t)
	if v, ok := s.m[k]; ok {
		return v, true
	}
	v := fill()
	s.m[k] = v
	return v, false
}

// walk calls f on each of the stripe's entries under its read lock and
// reports whether f asked to go on.
func (s *stripe[K, V]) walk(f func(k K, v V) bool) bool {
	t := s.lock.RLock()
	defer s.lock.RUnlock(t)
	for k, v := range s.m {
		if !f(k, v) {
			return false
		}
	}
	return true
}

// Map is a striped concurrent map.  See the package comment for the
// consistency contract.
type Map[K comparable, V any] struct {
	seed    maphash.Seed
	mask    uint64
	stripes []stripe[K, V]
}

// defaultStripes is the stripe count when WithStripes is not given:
// enough to spread a typical serving key space without making the
// empty Map's footprint surprising.
const defaultStripes = 64

// New constructs a Map.  The default configuration is 64 stripes,
// each guarded by a rwlock.SlimBravo.
func New[K comparable, V any](opts ...Option) *Map[K, V] {
	cfg := config{
		stripes: defaultStripes,
		factory: func() rwlock.RWLock { return rwlock.NewSlimBravo() },
	}
	for _, o := range opts {
		o(&cfg)
	}
	n := cfg.stripes
	if n < 1 {
		n = 1
	}
	if n > maxStripes {
		n = maxStripes
	}
	// Round up to a power of two.
	if n&(n-1) != 0 {
		n = 1 << bits.Len(uint(n))
	}
	m := &Map[K, V]{
		seed:    maphash.MakeSeed(),
		mask:    uint64(n - 1),
		stripes: make([]stripe[K, V], n),
	}
	for i := range m.stripes {
		s := &m.stripes[i]
		s.lock = cfg.factory()
		if _, combines := rwlock.CombinerStatsOf(s.lock); combines {
			s.fw, _ = s.lock.(rwlock.FuncWriter)
		}
		s.m = make(map[K]V)
	}
	return m
}

// Stripes returns the stripe count (a power of two in [1, 1<<20]).
func (m *Map[K, V]) Stripes() int { return len(m.stripes) }

// stripeOf returns the key's shard.
func (m *Map[K, V]) stripeOf(k K) *stripe[K, V] {
	return &m.stripes[maphash.Comparable(m.seed, k)&m.mask]
}

// LockOf returns the lock guarding k's stripe — the seam measurement
// harnesses use to wait on or inspect the exact lock a hot key
// contends on.  Mutating the map through this lock directly (instead
// of the Map methods) is the caller's own consistency problem.
func (m *Map[K, V]) LockOf(k K) rwlock.RWLock {
	return m.stripeOf(k).lock
}

// Get returns the value stored for k.
func (m *Map[K, V]) Get(k K) (V, bool) {
	s := m.stripeOf(k)
	t := s.lock.RLock()
	v, ok := s.m[k]
	s.lock.RUnlock(t)
	return v, ok
}

// Read runs f under k's stripe read lock with the stored value (and
// whether it was present).  Unlike Get it lets the caller inspect a
// pointer-valued V in place with the guarantee no Update is mutating
// it concurrently.  f must not call back into the same Map.  If f
// panics, the stripe lock is released before the panic propagates.
func (m *Map[K, V]) Read(k K, f func(v V, ok bool)) {
	m.stripeOf(k).read(k, f)
}

// Put stores v for k.
func (m *Map[K, V]) Put(k K, v V) {
	s := m.stripeOf(k)
	if s.fw != nil {
		// Combining stripe lock: ship the mutation through the closure
		// path it batches on.
		s.fw.Write(func() { s.m[k] = v })
		return
	}
	t := s.lock.Lock()
	s.m[k] = v
	s.lock.Unlock(t)
}

// Delete removes k.
func (m *Map[K, V]) Delete(k K) {
	s := m.stripeOf(k)
	if s.fw != nil {
		s.fw.Write(func() { delete(s.m, k) })
		return
	}
	t := s.lock.Lock()
	delete(s.m, k)
	s.lock.Unlock(t)
}

// Update atomically read-modify-writes k's entry: f receives the
// current value (and whether it exists) and returns the new value and
// whether to keep it (false deletes the entry).  f runs inside the
// stripe's write critical section — on a flat-combining stripe lock,
// possibly on the combiner's goroutine, batched with other stripe
// writes — so it must be short, must not block, and must not call
// back into the Map.  If f panics, the entry is left unchanged and
// the stripe lock is released before the panic reaches the caller, so
// a caller that recovers it can keep using the Map.  A combining
// stripe lock is the exception: there f may run on another caller's
// goroutine, and a panic in it is not handled.
func (m *Map[K, V]) Update(k K, f func(v V, ok bool) (V, bool)) {
	s := m.stripeOf(k)
	if s.fw != nil {
		s.fw.Write(func() { s.apply(k, f) })
		return
	}
	s.update(k, f)
}

// GetOrCompute returns the value for k, computing and storing it on a
// miss.  The hit path is one read acquisition.  A miss upgrades to
// one write acquisition of k's stripe, re-checks (another caller may
// have won the upgrade race), and only then runs fill — so of any set
// of concurrent callers for a missing k, exactly one runs fill and
// the rest return its value: the single-flight guarantee the separate
// Get-miss-then-Put sequence cannot give (its lost-update window
// between the two acquisitions runs every racer's fill and keeps an
// arbitrary one).  loaded reports whether the value was already
// present.  fill runs inside the stripe's write critical section: it
// must be short, must not block, and must not call back into the Map.
// If fill panics, nothing is stored and the stripe lock is released
// before the panic propagates.
func (m *Map[K, V]) GetOrCompute(k K, fill func() V) (v V, loaded bool) {
	s := m.stripeOf(k)
	t := s.lock.RLock()
	v, loaded = s.m[k]
	s.lock.RUnlock(t)
	if !loaded {
		v, loaded = s.compute(k, fill)
	}
	return v, loaded
}

// Len returns the total entry count, summed stripe by stripe under
// each stripe's read lock (consistent per stripe, not globally).
func (m *Map[K, V]) Len() int {
	n := 0
	for i := range m.stripes {
		s := &m.stripes[i]
		t := s.lock.RLock()
		n += len(s.m)
		s.lock.RUnlock(t)
	}
	return n
}

// Range calls f for every entry until f returns false.  Each stripe
// is walked under its read lock; the walk holds at most one stripe
// lock at a time (see the package comment for the cross-stripe
// consistency contract).  f must not mutate the Map — the stripe it
// would write is read-locked by its own caller.  If f panics, the
// stripe it was walking is unlocked before the panic propagates.
func (m *Map[K, V]) Range(f func(k K, v V) bool) {
	for i := range m.stripes {
		if !m.stripes[i].walk(f) {
			return
		}
	}
}
