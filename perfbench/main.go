// Command perfbench is the repository benchmark. It builds a small gallery
// venue behind a live in-process visualprint.Server on loopback TCP, with
// production defaults (DefaultServerConfig, its 150 ms pose deadline,
// default admission), drives one workload through the public client API
// over at most two connections, checks every answer, and prints one JSON
// result line last. From the repository root:
//
//	bash perfbench/run.sh --workload ar-walk --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs half the time
// untraced and half traced, reports the per-layer metrics (metrics.go) and
// the tracing overhead, and dumps the spans to .bench_build/perfbench.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	vp "visualprint"
)

// outDir holds trace dumps and the durable workload's data, relative to
// the repository root the benchmark runs from.
const outDir = ".bench_build/perfbench"

type workload struct {
	durable bool // OpenData on a fresh directory
	holdOut bool // keep a quarter of the wardrive for live ingest
	replay  bool // traced: replay the open loop serially in-process
	prepare func(b *bench) error
	phase   func(b *bench, p *phase) error
}

// The workloads, and why each is here:
var workloads = map[string]workload{
	// ar-walk is the paper's client path (Figure 7): one device on one
	// connection, a closed loop at a fixed capture interval, one
	// continuous Session over a seeded walk of rendered frames through
	// ExtractKeypoints, SelectUnique and Session.Query. SIFT and the
	// warm-started pose solve dominate; admission and the write path
	// barely run.
	"ar-walk": {prepare: prepareWalk, phase: walkPhase},
	// fleet-open stresses the server's Locate path (LSH, clustering, the
	// cold pose solve) and admission under contention, with no SIFT:
	// first-fix devices arrive open loop (Poisson, below the knee) over
	// two connections, then a closed-loop saturation phase gives
	// peak_qps. The 150 ms pose deadline can fire here.
	"fleet-open": {replay: true, prepare: prepareFleet, phase: fleetPhase},
	// wardrive-live is the write path beside reads: a durable server gets
	// the held-out quarter of the wardrive as Ingest batches at a fixed
	// cadence on connection 2 while devices query open loop at a low rate
	// on connection 1 and one OracleSync.Watch follows every epoch (WAL
	// fsync, RCU double apply and grace wait, oracle deltas, push
	// invalidation).
	"wardrive-live": {durable: true, holdOut: true, prepare: prepareLive, phase: livePhase},
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "ar-walk, fleet-open or wardrive-live")
	seed := flag.Int64("seed", 1, "seed of the generated queries")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	b := &bench{name: *name, seed: *seed, dur: time.Duration(*seconds) * time.Second, traced: *trace == 1,
		world: vp.BuildWorld(venueSpec), vals: map[string]float64{}}
	defer b.close()
	if err := b.execute(w); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out := b.result()
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

// bench is one run: the venue, the accounting, and the metric values.
type bench struct {
	name   string
	seed   int64
	dur    time.Duration
	traced bool
	world  *vp.World
	v      *venue

	mu   sync.Mutex
	errs []error // correctness violations
	ops  []*opCount
	vals map[string]float64

	// Filled by the workload's prepare step.
	segments [][]walkFrame
	views    []view
	prep     clientStats // the oracle filter's work on views
}

func (b *bench) violation(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.errs) < 20 {
		fmt.Println("# VIOLATION:", err)
	}
	b.errs = append(b.errs, err)
}

func (b *bench) newOps(name string) *opCount {
	o := newOps(name)
	b.mu.Lock()
	b.ops = append(b.ops, o)
	b.mu.Unlock()
	return o
}

func (b *bench) close() {
	if b.v != nil {
		b.v.close()
	}
}

func (b *bench) execute(w workload) error {
	reps := setupReps
	if b.traced {
		reps = 1 // setup_s is not reported from a traced run
	}
	var setupS, heap, ingestMs []float64
	ops := b.newOps("setup-ingest")
	for i := 0; i < reps; i++ {
		dir := ""
		if w.durable {
			dir = filepath.Join(outDir, fmt.Sprintf("data-%d-%d", os.Getpid(), i))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}
		// The previous build's server goes first, so no two overlap.
		b.close()
		b.v = nil
		v, s, h, err := buildVenue(b.world, dir, w.holdOut, ops, &ingestMs)
		if err != nil {
			return err
		}
		b.v = v
		setupS, heap = append(setupS, s), append(heap, h)
	}
	fmt.Printf("# setup: %d builds, %.3f s median, %d mappings, %d held-out batches\n",
		reps, median(setupS), b.v.mappings, len(b.v.held))
	b.vals["setup_s"] = median(setupS)
	b.vals["heap_bytes_per_mapping"] = median(heap)
	if !w.holdOut {
		b.setIngest(ingestMs, "setup batches")
	}

	if err := w.prepare(b); err != nil {
		return err
	}
	var phases []*phase
	if b.traced {
		// Same workload twice, half the time each: untraced, then traced.
		// The difference in latency_p50_ms is the tracing overhead.
		phases = []*phase{newPhase(b, 0, b.dur/2, false), newPhase(b, 1, b.dur-b.dur/2, true)}
	} else {
		phases = []*phase{newPhase(b, 0, b.dur, false)}
	}
	for _, p := range phases {
		if err := p.run(b, w); err != nil {
			return err
		}
	}
	last := phases[len(phases)-1]
	b.endToEnd(last, w)
	if b.traced {
		b.vals["trace.overhead_ms"] = median(last.lat) - median(phases[0].lat)
		last.layerMetrics(b)
		if err := last.dump(b); err != nil {
			return err
		}
	}
	b.finalChecks(phases)
	return nil
}

func (b *bench) setIngest(lat []float64, what string) {
	v, pct := tail(lat)
	fmt.Printf("# ingest (%s): n=%d p50 %.3f ms, tail p%.1f %.3f ms\n", what, len(lat), median(lat), pct, v)
	b.vals["ingest_p50_ms"] = median(lat)
	b.vals["ingest_tail_ms"] = v
}

func (b *bench) endToEnd(p *phase, w workload) {
	v, pct := tail(p.lat)
	fmt.Printf("# latency: n=%d p50 %.3f ms, tail p%.1f %.3f ms\n", len(p.lat), median(p.lat), pct, v)
	b.vals["latency_p50_ms"] = median(p.lat)
	b.vals["latency_tail_ms"] = v
	b.vals["uplink_bytes_per_query"] = ratio(float64(p.uplink), float64(p.queries))
	b.vals["loc_err_p50_m"] = median(p.locErr)
	if w.holdOut {
		b.setIngest(p.ingestLat, "live batches")
	}
}

// finalChecks: mapping count against every acked ingest, and the
// client's oracle against the server's, after the last phase.
func (b *bench) finalChecks(phases []*phase) {
	acked := 0
	for _, p := range phases {
		acked += p.acked
	}
	if err := checkMappings(int(b.v.srv.Stats().Mappings), b.v.mappings, acked); err != nil {
		b.violation(err)
	}
	so, err := b.v.srv.VenueOracle("")
	if err != nil {
		b.violation(err)
		return
	}
	if err := checkOracle(b.v.sync.Oracle(), so); err != nil {
		b.violation(err)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the JSON line: the end-to-end metrics untraced, the
// per-layer metrics traced, and the operation accounting of every phase.
func (b *bench) result() result {
	defs := endToEnd
	if b.traced {
		defs = perLayer
	}
	out := result{Correct: len(b.errs) == 0, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		out.Metrics[d.Name] = metricValue{Value: b.vals[d.Name], Unit: d.Unit}
	}
	for _, o := range b.ops {
		fmt.Println("# ops", o)
		out.Attempted += o.sent
		out.Failed += o.nFailed()
	}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-28s %14.4f %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	return out
}
