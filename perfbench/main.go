// Command perfbench is the repository benchmark.  It drives the public
// rwmap and rwlock APIs from 2 closed-loop client goroutines at
// GOMAXPROCS=2 and prints every metric by name with its unit; the last
// line of standard output is one JSON object with the verdict of the
// output checks and the metrics.
//
//	perfbench --workload kv-cache --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
// and reference passes and reports the per-layer metrics.  See
// README.md for the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"rwsync/rwlock"
)

// nClients is the number of closed-loop callers; gomaxprocs matches
// the 2-CPU box the baseline was recorded on.
const (
	nClients   = 2
	gomaxprocs = 2
)

// workload is one traffic mix.  zipfS == 0 selects the lock-hot record
// workload; otherwise keys over the kv map follow Zipf(zipfS).
type workload struct {
	name      string
	zipfS     float64
	writeFrac float64
}

var workloads = []workload{
	{"kv-cache", 1.07, 0.02},
	{"kv-update", 1.5, 0.50},
	{"lock-hot", 0, 0.10},
}

func (w workload) kv() bool { return w.zipfS != 0 }

// builder returns the constructor of w's system.  lock, when non-nil,
// replaces the default lock: the stripe lock factory on kv workloads,
// the hot lock on lock-hot.
func (w workload) builder(lock func() rwlock.RWLock) func() sut {
	if w.kv() {
		return func() sut { return newKV(lock) }
	}
	if lock == nil {
		lock = func() rwlock.RWLock { return rwlock.NewBravoMWSF() }
	}
	return func() sut { return newHot(lock()) }
}

func (w workload) clients(seed uint64) []*client {
	var z *zipf
	if w.kv() {
		z = newZipf(kvKeys, w.zipfS)
	}
	cs := make([]*client, nClients)
	for i := range cs {
		cs[i] = &client{stream: genStream(seed, i, z, w.writeFrac)}
	}
	return cs
}

type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

type report struct {
	metrics           []metric
	attempted, failed uint64
}

func (r *report) add(name string, value float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name, value, unit, note})
}

func (r *report) count(p *phaseResult) {
	r.attempted += p.attempted
	r.failed += p.failed
}

// endToEnd measures w untraced over 20 rounds, each on a freshly
// built system.  Each round constructs the system several times for
// setup_s and heap_mib: 3 times for a kv map (milliseconds each), 40
// times for the microsecond-scale lock-hot system.
func endToEnd(w workload, clients []*client, seconds float64) *report {
	reps := 3
	if !w.kv() {
		reps = 40
	}
	p := runPhase(w.builder(nil), clients, 20, reps, seconds)
	r := &report{}
	r.count(p)
	r.add("ops_per_s", p.opsPerSec(), "1/s", fmt.Sprintf("median of %d windows of %v; round medians %.4g", len(p.windows), window, p.rounds))
	rn := fmt.Sprintf("median over %d rounds; %d samples", len(p.rounds), p.rd.n)
	wn := fmt.Sprintf("median over %d rounds; %d samples", len(p.rounds), p.wr.n)
	r.add("read_p50_ns", p.latency(readP50), "ns", rn)
	r.add("read_p99_ns", p.latency(readP99), "ns", rn)
	r.add("write_p50_ns", p.latency(writeP50), "ns", wn)
	r.add("write_p99_ns", p.latency(writeP99), "ns", wn)
	r.add("setup_s", median(p.setups), "s", fmt.Sprintf("median of %d constructions", len(p.setups)))
	r.add("heap_mib", median(p.heaps), "MiB", "live heap held by the system after construction and a GC")
	return r
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: kv-cache, kv-update or lock-hot")
	seed := flag.Uint64("seed", 1, "seed of the generated operation streams")
	seconds := flag.Float64("seconds", 10, "measured wall time")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	spans := flag.String("spans", "", "directory to write the traced run's spans to (optional)")
	flag.Parse()

	var w workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w.name == "" {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	runtime.GOMAXPROCS(gomaxprocs)
	fmt.Printf("# workload %s seed %d seconds %g trace %d\n", w.name, *seed, *seconds, *trace)
	fmt.Printf("# box: nproc %d GOMAXPROCS %d %s %s/%s, %d closed-loop clients\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, nClients)

	clients := w.clients(*seed)
	var r *report
	if *trace == 1 {
		var err error
		r, err = traced(w, clients, *seconds, *spans, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	} else {
		r = endToEnd(w, clients, *seconds)
	}
	r.add("fail_ratio", float64(r.failed)/float64(max(r.attempted, 1)), "ratio", "failed checks / calls attempted")

	out := struct {
		Correct   bool                       `json:"correct"`
		Attempted uint64                     `json:"attempted"`
		Failed    uint64                     `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]json.RawMessage{}}
	for _, m := range r.metrics {
		fmt.Printf("%-40s %14.6g %-9s %s\n", m.name, m.value, m.unit, m.note)
		if m.name == "fail_ratio" {
			continue // carried by attempted and failed
		}
		v, err := json.Marshal(struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{m.value, m.unit})
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		out.Metrics[m.name] = v
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}
