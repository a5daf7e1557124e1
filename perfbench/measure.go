package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	vp "visualprint"
)

// median returns the middle of xs (the mean of the two middles for an
// even count), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs with at least 10 samples
// beyond it, with that percentile; with 10 or fewer samples it falls back
// to the maximum (pct 100) so the metric still exists.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n <= 10 {
		return s[n-1], 100
	}
	k := n - 11
	return s[k], 100 * float64(k+1) / float64(n)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// span is one traced interval at a layer boundary. Times are nanoseconds
// since the tracer started; spans of one request share Req, and Parent
// names the span that caused this one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced phases pay only a nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span ID, so a parent can be named before it ends.
func (t *tracer) id() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a finished span under a reserved ID.
func (t *tracer) add(id, parent, req int, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// child reserves an ID and records the span in one step (for leaves).
func (t *tracer) child(parent, req int, name string, start, end time.Time) {
	t.add(t.id(), parent, req, name, start, end)
}

// spanStats summarizes one span name: count, mean duration and mean self
// time, where self time is the span's duration minus the part of it its
// children cover.
type spanStats struct {
	Count  int     `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	SelfMs float64 `json:"self_ms"`
}

func selfTimes(spans []span) map[string]spanStats {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]spanStats{}
	for _, s := range spans {
		covered := coveredNs(s, kids[s.ID])
		st := out[s.Name]
		st.Count++
		st.MeanMs += float64(s.End-s.Start) / 1e6
		st.SelfMs += float64(s.End-s.Start-covered) / 1e6
		out[s.Name] = st
	}
	for k, st := range out {
		st.MeanMs /= float64(st.Count)
		st.SelfMs /= float64(st.Count)
		out[k] = st
	}
	return out
}

// coveredNs is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredNs(p span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = math.MinInt64
	for _, x := range iv {
		if x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// serverDiff is the change in the server's own Metrics() report across a
// phase: histogram means, counter deltas.
type serverDiff struct{ a, b vp.MetricsReport }

// meanMs is the mean of the observations histogram name received during
// the phase, in milliseconds (its values are nanoseconds).
func (d serverDiff) meanMs(name string) float64 { return d.mean(name) / 1e6 }

// mean is the mean of the observations histogram name received during the
// phase, in the histogram's own unit.
func (d serverDiff) mean(name string) float64 {
	ha, hb := d.a.Histograms[name], d.b.Histograms[name]
	return ratio(float64(hb.Sum-ha.Sum), float64(hb.Count-ha.Count))
}

func (d serverDiff) count(name string) float64 {
	return float64(d.b.Histograms[name].Count - d.a.Histograms[name].Count)
}

func (d serverDiff) counter(name string) float64 {
	return float64(d.b.Counters[name] - d.a.Counters[name])
}

// opCount accounts one phase's requests: sent, succeeded, and each
// failure by kind.
type opCount struct {
	mu     sync.Mutex
	name   string
	sent   int
	ok     int
	failed map[string]int
}

func newOps(name string) *opCount { return &opCount{name: name, failed: map[string]int{}} }

func (o *opCount) done(err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.sent++
	if err == nil {
		o.ok++
		return
	}
	o.failed[failureKind(err)]++
}

func (o *opCount) nFailed() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.sent - o.ok
}

func (o *opCount) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return fmt.Sprintf("%-12s sent %5d ok %5d failed %3d (shed %d, deadline %d, no-consensus %d, transport %d, other %d)",
		o.name, o.sent, o.ok, o.sent-o.ok, o.failed["shed"], o.failed["deadline"],
		o.failed["no-consensus"], o.failed["transport"], o.failed["other"])
}

func failureKind(err error) string {
	switch {
	case errors.Is(err, vp.ErrOverloaded):
		return "shed"
	case errors.Is(err, vp.ErrDeadlineExceeded):
		return "deadline"
	case errors.Is(err, vp.ErrNoConsensus), errors.Is(err, vp.ErrTooFewMatches):
		return "no-consensus"
	case !vp.IsRemoteError(err):
		return "transport"
	default:
		return "other"
	}
}

// Correctness checks. Each returns nil when the output is right.

// checkAnswer: the pose is finite and inside the venue bounds, which are
// the ingested positions' bounding box padded as the server pads its
// pose search box.
func checkAnswer(res vp.LocateResult, lo, hi vp.Vec3) error {
	p := res.Position
	for _, x := range []float64{p.X, p.Y, p.Z, res.Yaw} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("answer not finite: pos %v yaw %v", p, res.Yaw)
		}
	}
	if p.X < lo.X || p.Y < lo.Y || p.Z < lo.Z || p.X > hi.X || p.Y > hi.Y || p.Z > hi.Z {
		return fmt.Errorf("answer %v outside venue bounds %v..%v", p, lo, hi)
	}
	return nil
}

// checkUpload: no query carries more than selectCount keypoints.
func checkUpload(n int) error {
	if n > selectCount {
		return fmt.Errorf("query uploads %d keypoints, more than SelectCount %d", n, selectCount)
	}
	return nil
}

// checkMappings: the server holds the setup mappings plus every acked
// ingest, no more and no fewer.
func checkMappings(have, setup, acked int) error {
	if have != setup+acked {
		return fmt.Errorf("server holds %d mappings, want setup %d + acked %d", have, setup, acked)
	}
	return nil
}

// checkOracle: the client's synced oracle is byte-equal to the server's.
func checkOracle(client, server *vp.Oracle) error {
	if client == nil || server == nil {
		return errors.New("oracle missing")
	}
	var a, b bytes.Buffer
	if _, err := client.WriteTo(&a); err != nil {
		return err
	}
	if _, err := server.WriteTo(&b); err != nil {
		return err
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		return fmt.Errorf("client oracle (%d B, %d inserts) differs from the server's (%d B, %d inserts)",
			a.Len(), client.Inserts(), b.Len(), server.Inserts())
	}
	return nil
}
