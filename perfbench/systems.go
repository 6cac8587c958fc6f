package main

import (
	"time"

	"rwsync/rwlock"
	"rwsync/rwmap"
)

// kvKeys is the preload size of the kv workloads.
const kvKeys = 1 << 16

// kvSys is an rwmap.Map[uint64,uint64] preloaded with keys 0..kvKeys-1
// at value 0; writes increment a value with Update.
type kvSys struct {
	m *rwmap.Map[uint64, uint64]
}

func incr(v uint64, _ bool) (uint64, bool) { return v + 1, true }

// newKV builds and preloads the map; a nil factory keeps New's default
// stripe lock.
func newKV(factory func() rwlock.RWLock) *kvSys {
	var m *rwmap.Map[uint64, uint64]
	if factory == nil {
		m = rwmap.New[uint64, uint64]()
	} else {
		m = rwmap.New[uint64, uint64](rwmap.WithLockFactory(factory))
	}
	for k := uint64(0); k < kvKeys; k++ {
		m.Put(k, 0)
	}
	return &kvSys{m: m}
}

func (s *kvSys) step(c *client, w uint32, sample bool) {
	k := uint64(w >> 1)
	var t0 time.Time
	if sample {
		t0 = time.Now()
	}
	if w&1 == 0 {
		_, ok := s.m.Get(k)
		if sample {
			c.rd.add(int64(time.Since(t0)))
		}
		if !ok {
			c.failed++
		}
		return
	}
	s.m.Update(k, incr)
	if sample {
		c.wr.add(int64(time.Since(t0)))
	}
	c.acked++
}

// check: every preloaded key is still there, and the values sum to
// the acknowledged Updates.
func (s *kvSys) check(clients []*client) uint64 {
	var want, sum uint64
	for _, c := range clients {
		want += c.acked
	}
	s.m.Range(func(_, v uint64) bool {
		sum += v
		return true
	})
	var failed uint64
	if s.m.Len() != kvKeys {
		failed++
	}
	if sum != want {
		failed++
	}
	return failed
}

// hotSys is one lock guarding a 64-byte record of 8 words.  A read
// passage checks that all 8 words are equal; a write passage
// increments all 8.
type hotSys struct {
	l   rwlock.RWLock
	rec *[8]uint64
}

func newHot(l rwlock.RWLock) *hotSys { return &hotSys{l: l, rec: new([8]uint64)} }

// equal reports whether the record's 8 words agree; the caller holds
// the lock in either mode.
func (s *hotSys) equal() bool {
	r := s.rec
	return r[0] == r[1] && r[0] == r[2] && r[0] == r[3] &&
		r[0] == r[4] && r[0] == r[5] && r[0] == r[6] && r[0] == r[7]
}

func (s *hotSys) bump() {
	for i := range s.rec {
		s.rec[i]++
	}
}

func (s *hotSys) step(c *client, w uint32, sample bool) {
	var t0 time.Time
	if sample {
		t0 = time.Now()
	}
	if w&1 == 0 {
		t := s.l.RLock()
		ok := s.equal()
		s.l.RUnlock(t)
		if sample {
			c.rd.add(int64(time.Since(t0)))
		}
		if !ok {
			c.failed++
		}
		return
	}
	t := s.l.Lock()
	s.bump()
	s.l.Unlock(t)
	if sample {
		c.wr.add(int64(time.Since(t0)))
	}
	c.acked++
}

// check: the record is consistent and counts every write.
func (s *hotSys) check(clients []*client) uint64 {
	var want uint64
	for _, c := range clients {
		want += c.acked
	}
	t := s.l.RLock()
	defer s.l.RUnlock(t)
	if !s.equal() || s.rec[0] != want {
		return 1
	}
	return 0
}
