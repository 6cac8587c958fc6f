package rwstats

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rwsync/rwlock"
	"rwsync/rwmap"
)

// stopped reports whether the stop channel is closed.
func stopped(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

func TestRegistryRegistration(t *testing.T) {
	r := NewRegistry()
	st := &rwlock.LockStats{}
	if err := r.RegisterLock("kv", st); err != nil {
		t.Fatalf("RegisterLock: %v", err)
	}
	if err := r.RegisterLock("kv", st); err == nil {
		t.Fatal("duplicate RegisterLock accepted")
	}
	if err := r.RegisterLock("", st); err == nil {
		t.Fatal("empty-name RegisterLock accepted")
	}
	if err := r.RegisterLock("nil", nil); err == nil {
		t.Fatal("nil-block RegisterLock accepted")
	}
	r.UnregisterLock("kv")
	if err := r.RegisterLock("kv", st); err != nil {
		t.Fatalf("re-register after unregister: %v", err)
	}
	m := rwmap.New[string, int]()
	if err := r.RegisterMap("m", m); err != nil {
		t.Fatalf("RegisterMap: %v", err)
	}
	if err := r.RegisterMap("m", m); err == nil {
		t.Fatal("duplicate RegisterMap accepted")
	}
}

// TestJSONHandlerUnderTraffic scrapes /debug/rwsync-style JSON while
// the sources are under live traffic and checks the decoded document
// is coherent.
func TestJSONHandlerUnderTraffic(t *testing.T) {
	r := NewRegistry()
	st := &rwlock.LockStats{}
	l := rwlock.NewBravoMWSF(rwlock.WithStats(st))
	if err := r.RegisterLock("bravo", st); err != nil {
		t.Fatal(err)
	}
	m := rwmap.New[int, int](rwmap.WithStripes(8), rwmap.WithHotSet(2))
	if err := r.RegisterMap("kv", m); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// A fixed minimum so traffic exists even if the scrape loop
			// outpaces the scheduler, then run until told to stop.
			for i := 0; i < 500 || !stopped(stop); i++ {
				tok := l.RLock()
				l.RUnlock(tok)
				if i%10 == 0 {
					wt := l.Lock()
					l.Unlock(wt)
				}
				m.Put(i%64, i)
				m.Get(i % 64)
			}
		}(g)
	}

	for i := 0; i < 20; i++ {
		req := httptest.NewRequest("GET", "/debug/rwsync?top=4", nil)
		rec := httptest.NewRecorder()
		r.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("status %d", rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("Content-Type %q", ct)
		}
		var snap Snapshot
		if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
			t.Fatalf("scrape %d: invalid JSON: %v", i, err)
		}
		ls, ok := snap.Locks["bravo"]
		if !ok {
			t.Fatal("lock \"bravo\" missing from snapshot")
		}
		// The live-stable subset: reads never outrun the counter.
		if ls.ReadContended > ls.ReadAcquires+ls.TrySheds+ls.CtxSheds {
			t.Fatalf("scrape %d: read_contended %d > read_acquires %d", i, ls.ReadContended, ls.ReadAcquires)
		}
		hm, ok := snap.Maps["kv"]
		if !ok {
			t.Fatal("map \"kv\" missing from snapshot")
		}
		if hm.Stripes != 8 || len(hm.Top) != 4 {
			t.Fatalf("scrape %d: heatmap stripes=%d top=%d", i, hm.Stripes, len(hm.Top))
		}
	}
	close(stop)
	wg.Wait()

	final := st.Snapshot()
	if err := final.CheckCoherence(); err != nil {
		t.Fatalf("quiescent CheckCoherence: %v", err)
	}
	if final.ReadAcquires == 0 || final.WriteAcquires == 0 {
		t.Fatal("no traffic recorded")
	}
}

// TestPrometheusHandler checks the exposition format: headers before
// series, every family well-formed, values matching the block.
func TestPrometheusHandler(t *testing.T) {
	r := NewRegistry()
	st := &rwlock.LockStats{}
	l := rwlock.NewMWSF(rwlock.WithStats(st))
	for i := 0; i < 100; i++ {
		tok := l.RLock()
		l.RUnlock(tok)
	}
	wt := l.Lock()
	l.Unlock(wt)
	if err := r.RegisterLock(`k"v`, st); err != nil { // quote in the name exercises escaping
		t.Fatal(err)
	}
	m := rwmap.New[string, int](rwmap.WithStripes(4), rwmap.WithHotSet(1))
	m.Put("a", 1)
	if err := r.RegisterMap("kv", m); err != nil {
		t.Fatal(err)
	}

	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	r.Prometheus().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("Content-Type %q", ct)
	}
	body := rec.Body.String()
	if body == "" {
		t.Fatal("empty exposition")
	}
	want := []string{
		"# TYPE rwsync_lock_read_acquires_total counter",
		"rwsync_lock_read_acquires_total{lock=\"k\\\"v\"} 100",
		"rwsync_lock_write_acquires_total{lock=\"k\\\"v\"} 1",
		"# TYPE rwsync_lock_queue_depth gauge",
		"rwsync_lock_queue_depth{lock=\"k\\\"v\"} 0",
		"# TYPE rwsync_map_stripes gauge",
		"rwsync_map_stripes{map=\"kv\"} 4",
		"rwsync_map_stripe_entries{map=\"kv\"",
	}
	for _, w := range want {
		if !strings.Contains(body, w) {
			t.Errorf("exposition missing %q", w)
		}
	}
	// Well-formedness: every non-comment line is `name{labels} value`
	// and every family announces TYPE before its first series.
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			typed[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		brace := strings.IndexByte(line, '{')
		if brace < 1 {
			t.Fatalf("malformed series line %q", line)
		}
		if !typed[line[:brace]] {
			t.Fatalf("series %q before its # TYPE header", line)
		}
		if !strings.Contains(line[brace:], "} ") {
			t.Fatalf("malformed series line %q", line)
		}
	}
}

// expvarRuns numbers TestPublishExpvar's runs: expvar names are
// process-global and cannot be unpublished, so each run under -count
// needs a name of its own.
var expvarRuns atomic.Int64

func TestPublishExpvar(t *testing.T) {
	r := NewRegistry()
	st := &rwlock.LockStats{}
	if err := r.RegisterLock("kv", st); err != nil {
		t.Fatal(err)
	}
	name := fmt.Sprintf("rwsync_test_registry_%d", expvarRuns.Add(1))
	if err := r.PublishExpvar(name); err != nil {
		t.Fatalf("PublishExpvar: %v", err)
	}
	if err := r.PublishExpvar(name); err == nil {
		t.Fatal("duplicate PublishExpvar accepted")
	}
}

// TestWatchdogGraceStall wedges an epoch writer behind a held read
// passage and checks the watchdog names the grace layer, exactly once
// per episode.
func TestWatchdogGraceStall(t *testing.T) {
	st := &rwlock.LockStats{}
	e := rwlock.NewEpochMWSF(rwlock.WithStats(st))
	r := NewRegistry()
	if err := r.RegisterLock("epoch", st); err != nil {
		t.Fatal(err)
	}

	stalls := make(chan Stall, 16)
	w, err := r.StartWatchdog(WatchdogConfig{
		Threshold: 20 * time.Millisecond,
		Interval:  5 * time.Millisecond,
		OnStall:   func(s Stall) { stalls <- s },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()

	rt := e.RLock() // the reader that never leaves
	done := make(chan struct{})
	go func() {
		wt := e.Lock() // advances the epoch, wedges in the grace wait
		e.Unlock(wt)
		close(done)
	}()

	var s Stall
	select {
	case s = <-stalls:
	case <-time.After(2 * time.Second):
		t.Fatal("watchdog never fired on a wedged grace period")
	}
	if s.Layer != StallGrace || s.Lock != "epoch" {
		t.Fatalf("stall = %+v, want grace/epoch", s)
	}
	if s.Duration < 20*time.Millisecond {
		t.Errorf("reported duration %v below threshold", s.Duration)
	}

	// Same episode must not re-fire.
	select {
	case s2 := <-stalls:
		t.Fatalf("second firing for the same episode: %+v", s2)
	case <-time.After(100 * time.Millisecond):
	}

	e.RUnlock(rt) // end the episode
	<-done
	if got := st.Snapshot().Stalls; got != 1 {
		t.Errorf("stalls counter %d, want 1", got)
	}
}

// TestWatchdogArbitrationStall queues a writer behind a holder that
// never releases and checks the watchdog names the arbitration layer.
func TestWatchdogArbitrationStall(t *testing.T) {
	st := &rwlock.LockStats{}
	l := rwlock.NewMWSF(rwlock.WithStats(st))
	r := NewRegistry()
	if err := r.RegisterLock("mwsf", st); err != nil {
		t.Fatal(err)
	}

	stalls := make(chan Stall, 16)
	w, err := r.StartWatchdog(WatchdogConfig{
		Threshold: 20 * time.Millisecond,
		Interval:  5 * time.Millisecond,
		OnStall:   func(s Stall) { stalls <- s },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()

	hold := l.Lock() // the holder that never releases
	done := make(chan struct{})
	go func() {
		wt := l.Lock() // queues behind the holder
		l.Unlock(wt)
		close(done)
	}()

	var s Stall
	select {
	case s = <-stalls:
	case <-time.After(2 * time.Second):
		t.Fatal("watchdog never fired on a stuck arbitration queue")
	}
	if s.Layer != StallArbitration || s.Lock != "mwsf" {
		t.Fatalf("stall = %+v, want arbitration/mwsf", s)
	}

	select {
	case s2 := <-stalls:
		t.Fatalf("second firing for the same episode: %+v", s2)
	case <-time.After(100 * time.Millisecond):
	}

	l.Unlock(hold)
	<-done
	if got := st.Snapshot().Stalls; got != 1 {
		t.Errorf("stalls counter %d, want 1", got)
	}

	// A NEW episode (progress, then stuck again) fires again.
	hold2 := l.Lock()
	done2 := make(chan struct{})
	go func() {
		wt := l.Lock()
		l.Unlock(wt)
		close(done2)
	}()
	select {
	case s = <-stalls:
	case <-time.After(2 * time.Second):
		t.Fatal("watchdog did not fire on a second episode")
	}
	if s.Layer != StallArbitration {
		t.Fatalf("second stall = %+v, want arbitration", s)
	}
	l.Unlock(hold2)
	<-done2
}

// TestWatchdogQuietOnHealthyTraffic runs ordinary traffic and checks
// the watchdog stays silent.
func TestWatchdogQuietOnHealthyTraffic(t *testing.T) {
	st := &rwlock.LockStats{}
	l := rwlock.NewMWSF(rwlock.WithStats(st))
	r := NewRegistry()
	if err := r.RegisterLock("mwsf", st); err != nil {
		t.Fatal(err)
	}
	fired := make(chan Stall, 16)
	w, err := r.StartWatchdog(WatchdogConfig{
		Threshold: 20 * time.Millisecond,
		Interval:  5 * time.Millisecond,
		OnStall:   func(s Stall) { fired <- s },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()

	deadline := time.Now().Add(150 * time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				wt := l.Lock()
				l.Unlock(wt)
				rt := l.RLock()
				l.RUnlock(rt)
			}
		}()
	}
	wg.Wait()
	select {
	case s := <-fired:
		t.Fatalf("watchdog fired on healthy traffic: %+v", s)
	default:
	}
	if got := st.Snapshot().Stalls; got != 0 {
		t.Errorf("stalls counter %d on healthy traffic", got)
	}
}
