package rwstats

import (
	"fmt"
	"io"
	"net/http"
	"strings"

	"rwsync/rwlock"
	"rwsync/rwmap"
)

// Prometheus text exposition (format version 0.0.4), hand-rolled on
// the standard library: the container ships no client library, and
// the format is lines.  Metric families are emitted family-by-family
// — one # HELP / # TYPE header, then every lock's series — which is
// what the format requires and what keeps scrapes diff-stable (the
// registry's name-sorted source order).

// lockMetric is one exported counter/gauge family over LockStatsSnapshot.
type lockMetric struct {
	name string // full metric name, including the _total suffix for counters
	typ  string // "counter" | "gauge"
	help string
	get  func(*rwlock.LockStatsSnapshot) float64
}

var lockMetrics = []lockMetric{
	{"rwsync_lock_read_acquires_total", "counter", "Completed read passages.",
		func(s *rwlock.LockStatsSnapshot) float64 { return float64(s.ReadAcquires) }},
	{"rwsync_lock_read_contended_total", "counter", "Read passages that found their gate closed and waited.",
		func(s *rwlock.LockStatsSnapshot) float64 { return float64(s.ReadContended) }},
	{"rwsync_lock_write_acquires_total", "counter", "Completed write passages.",
		func(s *rwlock.LockStatsSnapshot) float64 { return float64(s.WriteAcquires) }},
	{"rwsync_lock_write_contended_total", "counter", "Write acquisitions that waited at the arbitration layer.",
		func(s *rwlock.LockStatsSnapshot) float64 { return float64(s.WriteContended) }},
	{"rwsync_lock_try_sheds_total", "counter", "TryLock/TryRLock attempts that reported busy.",
		func(s *rwlock.LockStatsSnapshot) float64 { return float64(s.TrySheds) }},
	{"rwsync_lock_ctx_sheds_total", "counter", "Context-cancelled acquisition attempts.",
		func(s *rwlock.LockStatsSnapshot) float64 { return float64(s.CtxSheds) }},
	{"rwsync_lock_revocations_total", "counter", "BRAVO read-bias revocations.",
		func(s *rwlock.LockStatsSnapshot) float64 { return float64(s.Revocations) }},
	{"rwsync_lock_re_arms_total", "counter", "BRAVO read-bias re-arms.",
		func(s *rwlock.LockStatsSnapshot) float64 { return float64(s.ReArms) }},
	{"rwsync_lock_epoch_advances_total", "counter", "Epoch global advances.",
		func(s *rwlock.LockStatsSnapshot) float64 { return float64(s.EpochAdvances) }},
	{"rwsync_lock_grace_waits_total", "counter", "Grace periods waited out by writers.",
		func(s *rwlock.LockStatsSnapshot) float64 { return float64(s.GraceWaits) }},
	{"rwsync_lock_queue_depth", "gauge", "Writers currently holding or queued at the arbitration layer.",
		func(s *rwlock.LockStatsSnapshot) float64 { return float64(s.QueueDepth) }},
	{"rwsync_lock_queue_depth_max", "gauge", "High-water mark of the arbitration queue depth.",
		func(s *rwlock.LockStatsSnapshot) float64 { return float64(s.QueueDepthMax) }},
	{"rwsync_lock_batches_total", "counter", "Flat-combining batches retired.",
		func(s *rwlock.LockStatsSnapshot) float64 { return float64(s.Batches) }},
	{"rwsync_lock_batch_max", "gauge", "Largest flat-combining batch retired.",
		func(s *rwlock.LockStatsSnapshot) float64 { return float64(s.BatchMax) }},
	{"rwsync_lock_combined_ops_total", "counter", "Closure writes retired through combining batches.",
		func(s *rwlock.LockStatsSnapshot) float64 { return float64(s.CombinedOps) }},
	{"rwsync_lock_parks_total", "counter", "Goroutines that parked on an owned waitCell.",
		func(s *rwlock.LockStatsSnapshot) float64 { return float64(s.Parks) }},
	{"rwsync_lock_unparks_total", "counter", "Parked goroutines that woke.",
		func(s *rwlock.LockStatsSnapshot) float64 { return float64(s.Unparks) }},
	{"rwsync_lock_stalls_total", "counter", "Stall-watchdog firings.",
		func(s *rwlock.LockStatsSnapshot) float64 { return float64(s.Stalls) }},
	{"rwsync_lock_retired_versions_total", "counter", "Versions handed to Retire.",
		func(s *rwlock.LockStatsSnapshot) float64 { return float64(s.RetiredVersions) }},
	{"rwsync_lock_reclaimed_versions_total", "counter", "Versions swept after their grace period.",
		func(s *rwlock.LockStatsSnapshot) float64 { return float64(s.ReclaimedVersions) }},
	{"rwsync_lock_retained_versions_max", "gauge", "High-water count of retired-not-yet-reclaimed versions.",
		func(s *rwlock.LockStatsSnapshot) float64 { return float64(s.RetainedVersionsMax) }},
	{"rwsync_lock_retained_bytes_max", "gauge", "High-water bytes of retired-not-yet-reclaimed versions.",
		func(s *rwlock.LockStatsSnapshot) float64 { return float64(s.RetainedBytesMax) }},
}

// labelEscaper escapes a label value per the exposition format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func writeFamily(w io.Writer, m *lockMetric, rows []struct {
	name string
	st   *rwlock.LockStats
}, snaps []rwlock.LockStatsSnapshot) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.typ)
	for i := range rows {
		fmt.Fprintf(w, "%s{lock=\"%s\"} %g\n", m.name, labelEscaper.Replace(rows[i].name), m.get(&snaps[i]))
	}
}

// writeLatencies emits the sampled wait/hold quantiles as one gauge
// family with class and quantile labels.
func writeLatencies(w io.Writer, rows []struct {
	name string
	st   *rwlock.LockStats
}, snaps []rwlock.LockStatsSnapshot) {
	const name = "rwsync_lock_latency_ns"
	fmt.Fprintf(w, "# HELP %s Sampled acquisition-wait and write-hold latency quantiles, in nanoseconds.\n# TYPE %s gauge\n", name, name)
	for i := range rows {
		lock := labelEscaper.Replace(rows[i].name)
		for _, c := range []struct {
			class string
			sum   rwlock.LatencySummary
		}{
			{"read_wait", snaps[i].ReadWait},
			{"write_wait", snaps[i].WriteWait},
			{"write_hold", snaps[i].WriteHold},
		} {
			if c.sum.Count == 0 {
				continue
			}
			for _, q := range []struct {
				label string
				v     int64
			}{{"0.5", c.sum.P50}, {"0.9", c.sum.P90}, {"0.99", c.sum.P99}, {"1", c.sum.Max}} {
				fmt.Fprintf(w, "%s{lock=\"%s\",class=\"%s\",quantile=\"%s\"} %d\n", name, lock, c.class, q.label, q.v)
			}
		}
	}
}

// writeMaps emits the per-map heatmap: whole-map gauges plus one
// series per reported stripe.
func (r *Registry) writeMaps(w io.Writer, top int) {
	maps := r.mapSources()
	if len(maps) == 0 {
		return
	}
	heats := make([]struct {
		name string
		hm   rwmap.Heatmap
	}, 0, len(maps))
	for _, m := range maps {
		heats = append(heats, struct {
			name string
			hm   rwmap.Heatmap
		}{m.name, m.src.Heatmap(top)})
	}

	fmt.Fprint(w, "# HELP rwsync_map_stripes Stripe count of the map.\n# TYPE rwsync_map_stripes gauge\n")
	for _, h := range heats {
		fmt.Fprintf(w, "rwsync_map_stripes{map=\"%s\"} %d\n", labelEscaper.Replace(h.name), h.hm.Stripes)
	}
	fmt.Fprint(w, "# HELP rwsync_map_reported_entries Entry count summed over the reported stripes.\n# TYPE rwsync_map_reported_entries gauge\n")
	for _, h := range heats {
		fmt.Fprintf(w, "rwsync_map_reported_entries{map=\"%s\"} %d\n", labelEscaper.Replace(h.name), h.hm.Entries)
	}
	fmt.Fprint(w, "# HELP rwsync_map_stripe_entries Entry count of one reported stripe.\n# TYPE rwsync_map_stripe_entries gauge\n")
	for _, h := range heats {
		mn := labelEscaper.Replace(h.name)
		for _, s := range h.hm.Top {
			fmt.Fprintf(w, "rwsync_map_stripe_entries{map=\"%s\",stripe=\"%d\",kind=\"%s\"} %d\n",
				mn, s.Index, labelEscaper.Replace(s.LockKind), s.Entries)
		}
	}
}

// Prometheus returns the text-exposition handler; mount it wherever
// the scraper looks (conventionally /metrics).  ?top=N bounds the
// per-map stripe series like the JSON handler.
func (r *Registry) Prometheus() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		rows := r.lockSources()
		snaps := make([]rwlock.LockStatsSnapshot, len(rows))
		for i := range rows {
			snaps[i] = rows[i].st.Snapshot()
		}
		for i := range lockMetrics {
			writeFamily(w, &lockMetrics[i], rows, snaps)
		}
		writeLatencies(w, rows, snaps)
		top := topOf(req)
		if top <= 0 {
			top = defaultHeatmapTop
		}
		r.writeMaps(w, top)
	})
}
