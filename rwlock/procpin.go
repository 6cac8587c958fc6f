package rwlock

import (
	_ "unsafe" // for go:linkname
)

// procPin / procUnpin expose the runtime's goroutine-to-P pinning
// primitive, the same one sync.Pool builds its per-P private slots
// on.  Between a pin and the matching unpin the goroutine cannot be
// preempted or migrated, so the returned P index is a stable,
// exclusive identity: no other goroutine can be running on that P at
// the same time.  That exclusivity is what lets the epoch lock keep a
// one-item slot cache per P with plain loads and stores — the pin
// guarantees at most one accessor per cache entry, and cache
// coherence orders same-location plain accesses, so no RMW or fence
// is needed to claim the cached slot.
//
// These are grandfathered linknames (sync.Pool and several popular
// modules depend on them), so the runtime keeps them exported.
//
//go:linkname procPin runtime.procPin
func procPin() int

//go:linkname procUnpin runtime.procUnpin
func procUnpin()

// semacquire / semrelease are the runtime semaphore that sync.Mutex
// and sync.RWMutex sleep on: semacquire parks the goroutine until the
// uint32 at addr is positive and then decrements it, semrelease
// increments it and readies one parked goroutine (with handoff, the
// caller also gives that goroutine its P).  Any uint32 can be a
// semaphore, which is what lets a 16-byte Slim lock sleep in its
// spare 4 bytes (slim.go).
//
// These are grandfathered linknames too: runtime/sema.go marks both
// "Do not remove or change the type signature", because widely used
// modules link to them.
//
//go:linkname semacquire sync.runtime_Semacquire
func semacquire(addr *uint32)

//go:linkname semrelease sync.runtime_Semrelease
func semrelease(addr *uint32, handoff bool, skipframes int)
