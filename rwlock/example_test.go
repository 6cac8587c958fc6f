package rwlock_test

import (
	"fmt"
	"sync"

	"rwsync/rwlock"
)

// The basic token discipline: keep the value returned by an acquire
// and hand it to the matching release.
func ExampleNewMWSF() {
	l := rwlock.NewMWSF() // any number of concurrent writers (MCS arbitration)

	wt := l.Lock()
	// ... exclusive access ...
	l.Unlock(wt)

	rt := l.RLock()
	// ... shared access ...
	l.RUnlock(rt)

	fmt.Println("done")
	// Output: done
}

// Writer priority: pending writers overtake readers that arrive after
// them, so updates land promptly even under read storms.
func ExampleNewMWWP() {
	l := rwlock.NewMWWP()
	config := "v1"

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wt := l.Lock()
		config = "v2"
		l.Unlock(wt)
	}()
	wg.Wait()

	rt := l.RLock()
	fmt.Println(config)
	l.RUnlock(rt)
	// Output: v2
}

// Guard hides the tokens behind closures — the recommended high-level
// API for protecting a single value.
func ExampleGuard() {
	g := rwlock.NewGuard(rwlock.NewMWRP(), map[string]int{})

	g.Write(func(m *map[string]int) { (*m)["hits"] = 41 })
	g.Write(func(m *map[string]int) { (*m)["hits"]++ })

	g.Read(func(m map[string]int) { fmt.Println(m["hits"]) })
	// Output: 42
}

// WithBoundedWriters swaps the default unbounded MCS writer
// arbitration for the paper's Anderson array: at most n goroutines may
// be inside a write attempt at once, and excess writers block at an
// admission gate — an explicit admission-control choice.
func ExampleWithBoundedWriters() {
	l := rwlock.NewMWSF(rwlock.WithBoundedWriters(4))

	wt := l.Lock()
	l.Unlock(wt)

	fmt.Println("bounded")
	// Output: bounded
}

// Locker adapts the write side to sync.Locker, e.g. for sync.Cond.
func ExampleLocker() {
	l := rwlock.NewMWSF()
	mu := rwlock.Locker(l)

	mu.Lock()
	fmt.Println("exclusive")
	mu.Unlock()
	// Output: exclusive
}

// The single-writer locks serialize writers with a single-writer flag
// instead of a queue when the application has one designated writer.
func ExampleNewSWWP() {
	l := rwlock.NewSWWP()

	wt := l.Lock() // only one goroutine may ever be between Lock/Unlock
	l.Unlock(wt)

	rt := l.RLock()
	l.RUnlock(rt)
	fmt.Println("ok")
	// Output: ok
}
