package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	vp "visualprint"
)

const (
	// poolSeed fixes the rendered views every run draws its requests
	// from. The workload seed draws the order, the arrivals, the view of
	// each request and its jitter: runs with different seeds then differ
	// in their requests, not in the mix of views they average over.
	poolSeed = 1
	// ar-walk: walkSegments walks past different paintings, each
	// walkViews views 6 cm apart, walked end to end in one session at one
	// frame per 100 ms (a 0.6 m/s walk); a frame takes ~60 ms.
	walkSegments = 8
	walkViews    = 8
	walkStep     = 0.06
	walkInterval = 100 * time.Millisecond
	// walkShift is the width of the seeded sub-pixel shift of a walk frame
	// (±0.05 px): it makes every fingerprint distinct (the float32
	// keypoint positions move) and keeps each frame close to the rendered
	// view. The venue's poses are ill-conditioned: at ±0.5 px a view's
	// cold fix moved by up to a metre, and loc_err_p50_m followed the
	// seed's draw of shifts more than the program.
	walkShift = 0.1
	// fleet-open: Poisson arrivals at fleetRate, a quarter of the measured
	// peak (a low rate keeps a slowed host from tipping the open loop into
	// a backlog), for fleetOpenShare of the run; closed-loop saturation with
	// satWorkers outstanding requests for the rest.
	fleetViews     = 32
	fleetRate      = 12.0
	fleetOpenShare = 0.85
	satWorkers     = 4
	// wardrive-live: queries at liveRate beside the ingest stream. An
	// ingest that meets a Locate waits out its grace period; at 10 q/s,
	// runs that lost CPU time to the host had about half their ingests
	// in such waits, and ingest_p50_ms moved with the host. At this rate
	// fewer ingests meet a Locate.
	liveViews = 16
	liveRate  = 5.0
	// reqTimeout bounds every request so a hung server fails the run.
	reqTimeout = 30 * time.Second
)

// walkFrame is one rendered ar-walk view and its true camera.
type walkFrame struct {
	img *vp.Image
	cam vp.Camera
}

// view is one pre-extracted first-fix fingerprint and its true camera.
type view struct {
	kps []vp.Keypoint // selected, as the wire carries them
	cam vp.Camera
}

// request is one open-loop or saturation query.
type request struct {
	due time.Duration // since the phase started
	kps []vp.Keypoint
	cam vp.Camera
	res vp.LocateResult
	err error
}

// phase is one measured interval of a workload and what it measured.
type phase struct {
	idx    int
	dur    time.Duration
	traced bool
	tr     *tracer // nil when untraced
	// sched draws arrivals and views, the same in every phase of a run so
	// the traced and untraced halves see one schedule; rng draws the
	// per-request jitter, which differs.
	sched, rng *rand.Rand

	mu        sync.Mutex
	lat       []float64 // the workload's request latency, ms
	rtt       []float64 // Query call only, ms
	locErr    []float64
	ingestLat []float64
	queries   int
	uplink    int64
	uploaded  int
	matched   int
	acked     int // mappings acked by live ingest

	siftMs []float64
	client clientStats

	srvDiff serverDiff
	depth   []float64 // sampled queue_depth
	cpuMs   float64
	allocB  float64
	// stealShare is the share of the machine's CPU time the hypervisor
	// took during the phase.
	stealShare float64
	maxLate    time.Duration
	peakQPS    float64
	replay     replayStats
	stale      []float64
	updates    int
	oracleB    int64
	openReqs   []*request // fleet open-loop requests, for the replay
	// openEnd, when set, ends the server-metrics diff: the per-layer
	// server times then cover the open loop, not the saturation phase.
	openEnd *vp.MetricsReport
}

// clientStats is the oracle filter's work: per-frame selection time,
// keypoints extracted and kept, and frames with more keypoints than
// selectCount.
type clientStats struct {
	selectMs              []float64
	extracted, kept, over int
	frames                int
}

func (c *clientStats) add(selectMs float64, extracted, kept int) {
	c.selectMs = append(c.selectMs, selectMs)
	c.extracted += extracted
	c.kept += kept
	c.frames++
	if extracted > selectCount {
		c.over++
	}
}

type replayStats struct {
	n, mismatched int
	gens          []float64
	solveMs       float64
}

func newPhase(b *bench, idx int, dur time.Duration, traced bool) *phase {
	p := &phase{idx: idx, dur: dur, traced: traced,
		sched: rand.New(rand.NewSource(b.seed*1000003 + 1)),
		rng:   rand.New(rand.NewSource(b.seed*1000003 + int64(idx)*7919 + 2))}
	if traced {
		p.tr = newTracer()
	}
	return p
}

// run measures the phase: the server's metrics and the process's CPU and
// allocations around it, plus queue-depth sampling when traced.
func (p *phase) run(b *bench, w workload) error {
	before := b.v.srv.Metrics()
	cpu0, alloc0 := cpuAndAlloc()
	steal0, total0 := hostSteal()
	var stop chan struct{}
	var sampler sync.WaitGroup
	if p.traced {
		stop = make(chan struct{})
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			t := time.NewTicker(5 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					d := float64(b.v.srv.Metrics().Gauges["queue_depth"])
					p.mu.Lock()
					p.depth = append(p.depth, d)
					p.mu.Unlock()
				}
			}
		}()
	}
	err := w.phase(b, p)
	if stop != nil {
		close(stop)
		sampler.Wait()
	}
	cpu1, alloc1 := cpuAndAlloc()
	steal1, total1 := hostSteal()
	p.stealShare = ratio(steal1-steal0, total1-total0)
	fmt.Printf("# host: the hypervisor took %.1f%% of this machine's CPU time during phase %d\n", 100*p.stealShare, p.idx)
	after := b.v.srv.Metrics()
	if p.openEnd != nil {
		after = *p.openEnd
	}
	p.srvDiff = serverDiff{before, after}
	p.cpuMs, p.allocB = cpu1-cpu0, alloc1-alloc0
	if err != nil {
		return err
	}
	if len(p.lat) == 0 {
		return fmt.Errorf("phase %d of %s answered no requests", p.idx, b.name)
	}
	if p.traced && w.replay {
		b.replay(p)
	}
	return nil
}

// cpuAndAlloc is the process's CPU time (ms) and cumulative allocation.
func cpuAndAlloc() (cpuMs, alloc float64) {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		cpuMs = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return cpuMs, float64(m.TotalAlloc)
}

// hostSteal reads the machine's CPU time stolen by the hypervisor and its
// total CPU time, in clock ticks, from /proc/stat (zeros where absent).
// Steal bursts on a shared host slow every timing in a run; the share
// explains such outliers.
func hostSteal() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user..steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// answered records one query answer: accounting, the correctness check,
// and its latency, error and keypoint counts.
func (p *phase) answered(b *bench, ops *opCount, res vp.LocateResult, err error, cam vp.Camera, uploaded int, lat, rtt time.Duration) {
	ops.done(err)
	if cerr := checkUpload(uploaded); cerr != nil {
		b.violation(cerr)
	}
	if err != nil {
		return
	}
	if cerr := checkAnswer(res, b.v.lo, b.v.hi); cerr != nil {
		b.violation(cerr)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lat = append(p.lat, ms(lat))
	p.rtt = append(p.rtt, ms(rtt))
	p.locErr = append(p.locErr, res.Position.Dist(cam.Pos))
	p.uploaded += uploaded
	p.matched += res.Matched
}

func bytesSent(cs ...*vp.Client) int64 {
	var n int64
	for _, c := range cs {
		n += c.BytesSent()
	}
	return n
}

// ---- ar-walk ----

func prepareWalk(b *bench) error {
	rng := rand.New(rand.NewSource(poolSeed))
	for s := 0; s < walkSegments; s++ {
		cams, err := walkCams(b.world, rng, walkViews, walkStep)
		if err != nil {
			return err
		}
		var seg []walkFrame
		for _, cam := range cams {
			fr, err := vp.Render(b.world, cam)
			if err != nil {
				return err
			}
			seg = append(seg, walkFrame{img: fr.Image, cam: cam})
		}
		b.segments = append(b.segments, seg)
	}
	return nil
}

// walkPhase walks the segments in passes: one Session each (the device
// re-localizes at every painting it walks up to), over the segment's
// views from one end to the other. The passes, a segment and a direction
// each, are dealt in seeded shuffles of all of them, so every run walks
// each segment each way about equally often. A session's error drifts
// from its first fix and differs from pass to pass; with walkSegments
// segments, no one segment's errors decide loc_err_p50_m. Frames are
// shifted by a seeded sub-pixel offset (walkShift) before the clock
// starts, so every request carries a fingerprint of its own.
func walkPhase(b *bench, p *phase) error {
	n := int(p.dur/walkInterval) + 1
	var frames []walkFrame
	var firsts []int // index of each session's first frame
	var passes []int
	for len(frames) < n {
		if len(passes) == 0 {
			passes = p.sched.Perm(2 * len(b.segments))
		}
		seg := b.segments[passes[0]/2]
		back := passes[0]%2 == 1
		passes = passes[1:]
		firsts = append(firsts, len(frames))
		for i := 0; i < len(seg) && len(frames) < n; i++ {
			f := seg[i]
			if back {
				f = seg[len(seg)-1-i]
			}
			frames = append(frames, walkFrame{img: shiftImage(f.img, walkShift*(p.rng.Float64()-0.5), walkShift*(p.rng.Float64()-0.5)), cam: f.cam})
		}
	}
	c := b.v.conns[0]
	var sess vp.SessionHandle
	ops := b.newOps(fmt.Sprintf("frames/%d", p.idx))
	sc := querySift()
	sent0 := bytesSent(c)
	start := time.Now()
	for i, f := range frames {
		due := start.Add(time.Duration(i) * walkInterval)
		if due.Sub(start) >= p.dur {
			break
		}
		time.Sleep(time.Until(due))
		if len(firsts) > 0 && firsts[0] == i {
			sess, firsts = c.Session(), firsts[1:]
		}
		id := p.tr.id()
		t0 := time.Now()
		kps := vp.ExtractKeypoints(f.img, sc)
		t1 := time.Now()
		sel := kps
		var err error
		if len(kps) > selectCount {
			sel, err = b.v.oracle.SelectUnique(kps, selectCount)
			if err != nil {
				return fmt.Errorf("select: %w", err)
			}
		}
		t2 := time.Now()
		p.client.add(ms(t2.Sub(t1)), len(kps), len(sel))
		ctx, cancel := context.WithTimeout(context.Background(), reqTimeout)
		res, err := sess.Query(ctx, sel, vp.IntrinsicsOf(f.cam))
		cancel()
		t3 := time.Now()
		p.tr.child(id, id, "sift.detect", t0, t1)
		p.tr.child(id, id, "core.select", t1, t2)
		p.tr.child(id, id, "server.query", t2, t3)
		p.tr.add(id, 0, id, "frame", t0, t3)
		p.siftMs = append(p.siftMs, ms(t1.Sub(t0)))
		p.queries++
		p.answered(b, ops, res, err, f.cam, len(sel), t3.Sub(t0), t3.Sub(t2))
	}
	p.uplink = bytesSent(c) - sent0
	return nil
}

// ---- first-fix views (fleet-open, wardrive-live) ----

// prepareViews renders, extracts and selects n seeded views outside every
// clock: the fingerprints a fleet of devices would upload. A view the
// unloaded server cannot localize (no consensus: a blank stretch of wall,
// or on wardrive-live a region not ingested yet) is redrawn; more than n
// redraws fail the run, so a server that stops localizing cannot hide
// behind the redraws. The oracle filter's work is kept for the per-layer
// report.
func prepareViews(b *bench, n int) error {
	rng := rand.New(rand.NewSource(poolSeed))
	sc := querySift()
	for redrawn := 0; len(b.views) < n; {
		cam, err := viewCam(b.world, rng)
		if err != nil {
			return err
		}
		fr, err := vp.Render(b.world, cam)
		if err != nil {
			return err
		}
		kps := vp.ExtractKeypoints(fr.Image, sc)
		t := time.Now()
		sel := kps
		if len(kps) > selectCount {
			if sel, err = b.v.oracle.SelectUnique(kps, selectCount); err != nil {
				return err
			}
		}
		selMs := ms(time.Since(t))
		if _, err := b.v.srv.Locate(context.Background(), "", sel, vp.IntrinsicsOf(cam)); err != nil {
			if redrawn++; redrawn > n {
				return fmt.Errorf("%d of %d views did not localize; last: %w", redrawn, redrawn+len(b.views), err)
			}
			continue
		}
		b.prep.add(selMs, len(kps), len(sel))
		b.views = append(b.views, view{kps: sel, cam: cam})
	}
	return nil
}

// requests draws the phase's queries. With a rate, they arrive as a
// Poisson process over d conditioned on its expected count rate*d: that
// many uniform due times, sorted. Without one, count requests have no due
// time. Views are dealt in seeded shuffles of the whole pool, so every run
// averages over the same mix; each request gets a fresh quarter-pixel
// jitter, round-tripped through the wire encoding so an in-process replay
// sees exactly what the server saw.
func (p *phase) requests(b *bench, rate float64, d time.Duration, count int) ([]*request, error) {
	var dues []time.Duration
	if rate > 0 {
		count = int(math.Round(rate * d.Seconds()))
		for i := 0; i < count; i++ {
			dues = append(dues, time.Duration(p.sched.Float64()*float64(d)))
		}
		sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	}
	var deck []int
	out := make([]*request, count)
	for i := range out {
		if len(deck) == 0 {
			deck = p.sched.Perm(len(b.views))
		}
		v := b.views[deck[0]]
		deck = deck[1:]
		kps, err := vp.UnmarshalKeypoints(vp.MarshalKeypoints(jitterKeypoints(v.kps, p.rng)))
		if err != nil {
			return nil, err
		}
		out[i] = &request{kps: kps, cam: v.cam}
		if dues != nil {
			out[i].due = dues[i]
		}
	}
	return out, nil
}

// query sends one request and records it; the latency runs from due.
func (p *phase) query(b *bench, ops *opCount, c *vp.Client, r *request, due time.Time) {
	id := p.tr.id()
	ctx, cancel := context.WithTimeout(context.Background(), reqTimeout)
	t := time.Now()
	r.res, r.err = c.Query(ctx, r.kps, vp.IntrinsicsOf(r.cam))
	end := time.Now()
	cancel()
	p.tr.child(id, id, "server.query", t, end)
	p.tr.add(id, 0, id, "query", due, end)
	p.mu.Lock()
	p.queries++
	p.mu.Unlock()
	p.answered(b, ops, r.res, r.err, r.cam, len(r.kps), end.Sub(due), end.Sub(t))
}

// openLoop sends each request at its due time on connection i%len(cs)
// without waiting for earlier replies, and reports how late it ran.
func (p *phase) openLoop(b *bench, ops *opCount, cs []*vp.Client, reqs []*request) {
	var wg sync.WaitGroup
	// Bounds the goroutines of a stalled server; reaching it delays the
	// generator, which then shows as lateness.
	sem := make(chan struct{}, 256)
	start := time.Now()
	for i, r := range reqs {
		due := start.Add(r.due)
		time.Sleep(time.Until(due))
		sem <- struct{}{}
		if late := time.Since(due); late > p.maxLate {
			p.maxLate = late
		}
		wg.Add(1)
		go func(c *vp.Client, r *request) {
			defer wg.Done()
			defer func() { <-sem }()
			p.query(b, ops, c, r, due)
		}(cs[i%len(cs)], r)
	}
	wg.Wait()
}

// ---- fleet-open ----

func prepareFleet(b *bench) error { return prepareViews(b, fleetViews) }

func fleetPhase(b *bench, p *phase) error {
	open := time.Duration(float64(p.dur) * fleetOpenShare)
	reqs, err := p.requests(b, fleetRate, open, 0)
	if err != nil {
		return err
	}
	// A pool larger than the saturation phase can drain.
	pool, err := p.requests(b, 0, 0, 400)
	if err != nil {
		return err
	}
	cs := b.v.conns[:]
	sent0 := bytesSent(cs...)
	p.openLoop(b, b.newOps(fmt.Sprintf("open-loop/%d", p.idx)), cs, reqs)
	p.openReqs = reqs
	openEnd := b.v.srv.Metrics()
	p.openEnd = &openEnd
	lat := len(p.lat)

	sat := b.newOps(fmt.Sprintf("saturate/%d", p.idx))
	satDur := p.dur - open
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < satWorkers; w++ {
		wg.Add(1)
		go func(c *vp.Client) {
			defer wg.Done()
			for time.Since(start) < satDur {
				i := next.Add(1) - 1
				if int(i) >= len(pool) {
					return
				}
				p.query(b, sat, c, pool[i], time.Now())
			}
		}(cs[w%len(cs)])
	}
	wg.Wait()
	elapsed := time.Since(start)
	p.uplink = bytesSent(cs...) - sent0
	p.mu.Lock()
	ok := len(p.lat) - lat
	p.lat = p.lat[:lat] // latency is the open loop's; saturation gives peak_qps
	p.rtt = p.rtt[:lat]
	p.mu.Unlock()
	p.peakQPS = float64(ok) / elapsed.Seconds()
	fmt.Printf("# phase %d: open loop %d requests at %.0f/s over %v, max late %.2f ms; saturation %.1f q/s over %v\n",
		p.idx, len(reqs), fleetRate, open, ms(p.maxLate), p.peakQPS, elapsed.Round(time.Millisecond))
	return nil
}

// replay re-solves each open-loop request serially in-process: the
// generations the solve took, its time, and whether the answer under load
// was bit-identical. Mismatches are reported, never gated: they expose
// the pose solve's wall-clock deadline firing under load.
func (b *bench) replay(p *phase) {
	before := b.v.srv.Metrics()
	for _, r := range p.openReqs {
		if r.err != nil {
			continue
		}
		res, err := b.v.srv.Locate(context.Background(), "", r.kps, vp.IntrinsicsOf(r.cam))
		if err != nil {
			p.replay.mismatched++
			p.replay.n++
			continue
		}
		p.replay.n++
		p.replay.gens = append(p.replay.gens, float64(res.Generations))
		if !sameBits(res, r.res) {
			p.replay.mismatched++
		}
	}
	p.replay.solveMs = serverDiff{before, b.v.srv.Metrics()}.meanMs("stage_pose_solve_ns")
}

func sameBits(a, b vp.LocateResult) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return eq(a.Position.X, b.Position.X) && eq(a.Position.Y, b.Position.Y) &&
		eq(a.Position.Z, b.Position.Z) && eq(a.Yaw, b.Yaw) && eq(a.Residual, b.Residual)
}

// ---- wardrive-live ----

func prepareLive(b *bench) error { return prepareViews(b, liveViews) }

type ack struct {
	at      time.Time
	inserts uint64 // oracle insert count the ack made current
	id      int
}

type delivery struct {
	at      time.Time
	inserts uint64
}

func livePhase(b *bench, p *phase) error {
	held := b.v.held
	if b.traced {
		if p.idx == 0 {
			held = held[:len(held)/2]
		} else {
			held = held[len(held)/2:]
		}
	}
	reqs, err := p.requests(b, liveRate, p.dur, 0)
	if err != nil {
		return err
	}
	_, inserts, ok := b.v.sync.Version()
	if !ok {
		return fmt.Errorf("oracle handle holds no version")
	}
	bytes0 := b.v.sync.TransferBytes()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	updates, err := b.v.sync.Watch(ctx)
	if err != nil {
		return fmt.Errorf("watch: %w", err)
	}
	var (
		dmu       sync.Mutex
		delivered []delivery
		watchErr  error
		watching  sync.WaitGroup
	)
	watching.Add(1)
	go func() {
		defer watching.Done()
		for u := range updates {
			if u.Err != nil {
				dmu.Lock()
				watchErr = u.Err
				dmu.Unlock()
				continue
			}
			dmu.Lock()
			delivered = append(delivered, delivery{at: time.Now(), inserts: u.Inserts})
			dmu.Unlock()
		}
	}()

	// Ingest stream on connection 2, at a fixed cadence over the phase.
	var acks []ack
	ingOps := b.newOps(fmt.Sprintf("ingest/%d", p.idx))
	var ingesting sync.WaitGroup
	ingesting.Add(1)
	start := time.Now()
	go func() {
		defer ingesting.Done()
		cadence := p.dur / time.Duration(len(held))
		for i, batch := range held {
			time.Sleep(time.Until(start.Add(time.Duration(i) * cadence)))
			id := p.tr.id()
			ictx, icancel := context.WithTimeout(context.Background(), reqTimeout)
			t := time.Now()
			_, err := b.v.conns[1].Ingest(ictx, batch)
			end := time.Now()
			icancel()
			p.tr.add(id, 0, id, "ingest", t, end)
			ingOps.done(err)
			if err != nil {
				continue
			}
			inserts += uint64(len(batch))
			p.mu.Lock()
			p.ingestLat = append(p.ingestLat, ms(end.Sub(t)))
			p.acked += len(batch)
			p.mu.Unlock()
			acks = append(acks, ack{at: end, inserts: inserts, id: id})
		}
	}()
	c := b.v.conns[0]
	sent0 := bytesSent(c)
	p.openLoop(b, b.newOps(fmt.Sprintf("open-loop/%d", p.idx)), []*vp.Client{c}, reqs)
	p.uplink = bytesSent(c) - sent0
	ingesting.Wait()

	// Let the watcher catch up with the last ack, then stop it.
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if _, have, _ := b.v.sync.Version(); have >= inserts {
			break
		}
	}
	cancel()
	watching.Wait()
	if watchErr != nil {
		b.violation(fmt.Errorf("oracle watch failed: %w", watchErr))
	}
	// Staleness: each ack until the first delivery covering it.
	for _, a := range acks {
		for _, d := range delivered {
			if d.inserts >= a.inserts {
				p.stale = append(p.stale, math.Max(0, ms(d.at.Sub(a.at))))
				p.tr.child(0, a.id, "oracle.update", a.at, maxTime(a.at, d.at))
				break
			}
		}
	}
	p.updates = len(delivered)
	p.oracleB = b.v.sync.TransferBytes() - bytes0
	fmt.Printf("# phase %d: %d ingests every %v, %d queries at %.0f/s, %d oracle updates, max late %.2f ms\n",
		p.idx, len(held), (p.dur / time.Duration(len(held))).Round(time.Millisecond), len(reqs), liveRate, len(delivered), ms(p.maxLate))
	return nil
}

func maxTime(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

// ---- per-layer report (traced phase) ----

func (p *phase) layerMetrics(b *bench) {
	d := p.srvDiff
	v := b.vals
	cs := p.client
	if cs.frames == 0 {
		cs = b.prep // fingerprints extracted before the clock started
	}
	v["sift.detect_ms"] = mean(p.siftMs)
	v["sift.keypoints_per_frame"] = ratio(float64(cs.extracted), float64(len(p.siftMs)))
	v["core.select_ms"] = mean(cs.selectMs)
	v["core.keep_ratio"] = ratio(float64(cs.kept), float64(cs.extracted))
	v["core.filtered_share"] = ratio(float64(cs.over), float64(cs.frames))

	rtt := mean(p.rtt)
	reqMs := d.meanMs("request_query_ns")
	locMs := d.meanMs("locate_ns")
	v["server.rtt_ms"] = rtt
	v["server.wire_ms"] = rtt - reqMs
	v["server.admit_wait_ms"] = reqMs - locMs
	v["server.queue_depth_p99"] = percentile(p.depth, 0.99)
	v["server.shed_ratio"] = ratio(d.counter("requests_shed"), d.counter("requests_query")+d.counter("requests_shed"))
	v["server.locate_ms"] = locMs
	v["lsh.query_ms"] = d.meanMs("stage_lsh_query_ns")
	v["cluster.ms"] = d.meanMs("stage_cluster_ns")
	v["cluster.matched_ratio"] = ratio(float64(p.matched), float64(p.uploaded))
	v["pose.solve_ms"] = d.meanMs("stage_pose_solve_ns")
	if p.replay.n > 0 {
		v["pose.solve_ms"] = p.replay.solveMs
		v["pose.generations"] = mean(p.replay.gens)
		v["pose.mismatch_ratio"] = ratio(float64(p.replay.mismatched), float64(p.replay.n))
	}
	warm, cold := d.counter("track_warm"), d.counter("track_cold")
	v["track.warm_ratio"] = ratio(warm, warm+cold)
	v["track.warm_generations"] = d.mean("track_warm_generations")
	v["track.cold_generations"] = d.mean("track_cold_generations")
	v["track.prior_rejected"] = d.counter("track_prior_rejected")
	if warm+cold > 0 {
		gens := float64(d.b.Histograms["track_warm_generations"].Sum - d.a.Histograms["track_warm_generations"].Sum +
			d.b.Histograms["track_cold_generations"].Sum - d.a.Histograms["track_cold_generations"].Sum)
		v["pose.generations"] = ratio(gens, d.count("track_warm_generations")+d.count("track_cold_generations"))
	}

	v["store.wal_fsync_ms"] = d.meanMs("wal_fsync_ns")
	v["store.wal_append_ms"] = d.meanMs("stage_wal_append_ns")
	v["store.snapshot_ms"] = d.meanMs("snapshot_write_ns")
	ing := d.meanMs("ingest_ns")
	v["server.ingest_ms"] = ing
	if ing > 0 {
		v["server.ingest_apply_ms"] = ing - v["store.wal_append_ms"]
	}
	syncs := d.counter("oracle_syncs_delta") + d.counter("oracle_syncs_full")
	v["oraclesync.delta_share"] = ratio(d.counter("oracle_syncs_delta"), syncs)
	v["oraclesync.bytes_per_sync"] = ratio(d.counter("oracle_sync_bytes"), syncs+d.counter("oracle_syncs_unchanged"))
	v["oraclesync.pushes"] = d.counter("oracle_epoch_pushes")

	v["runtime.alloc_bytes_per_query"] = ratio(p.allocB, float64(p.queries))
	v["runtime.cpu_ms_per_query"] = ratio(p.cpuMs, float64(p.queries))
	v["peak_qps"] = p.peakQPS
	v["oracle_staleness_p50_ms"] = median(p.stale)
	v["oracle_bytes_per_update"] = ratio(float64(p.oracleB), float64(p.updates))
	v["loadgen.max_late_ms"] = ms(p.maxLate)
	v["host.steal_share"] = p.stealShare
}

// percentile is the q-quantile of xs by nearest rank.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(math.Ceil(q*float64(len(s))))-1]
}

// dump writes the traced phase's spans and self times, and prints the
// self-time table.
func (p *phase) dump(b *bench) error {
	self := selfTimes(p.tr.spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := self[n]
		fmt.Printf("# span %-14s n=%5d mean %9.3f ms self %9.3f ms\n", n, s.Count, s.MeanMs, s.SelfMs)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", b.name, b.seed))
	data, err := json.Marshal(struct {
		Workload string               `json:"workload"`
		Seed     int64                `json:"seed"`
		Spans    []span               `json:"spans"`
		Self     map[string]spanStats `json:"self"`
	}{b.name, b.seed, p.tr.spans, self})
	if err != nil {
		return err
	}
	fmt.Println("# spans written to", path)
	return os.WriteFile(path, data, 0o644)
}
