package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	vp "visualprint"
)

// TestMetricsMatchManifest: every metric the benchmark prints is declared
// in BENCHMARK.json with the same unit and direction, and every declared
// metric is printed, in both modes.
func TestMetricsMatchManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		traced   bool
		declared []struct{ Name, Unit, Better string }
		defs     []metricDef
	}{{false, manifest.EndToEnd, endToEnd}, {true, manifest.PerLayer, perLayer}} {
		want := map[string]string{}
		for _, m := range tc.declared {
			want[m.Name] = m.Unit + " " + m.Better
		}
		for _, d := range tc.defs {
			if want[d.Name] != d.Unit+" "+d.Better {
				t.Errorf("metric %s (%s %s) declared as %q", d.Name, d.Unit, d.Better, want[d.Name])
			}
		}
		b := &bench{traced: tc.traced, vals: map[string]float64{}}
		printed := b.result().Metrics
		if len(printed) != len(want) {
			t.Errorf("traced=%v prints %d metrics, BENCHMARK.json declares %d", tc.traced, len(printed), len(want))
		}
		for _, m := range tc.declared {
			if got, ok := printed[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("traced=%v: declared metric %s (%s) printed as %+v", tc.traced, m.Name, m.Unit, got)
			}
		}
	}
}

func TestChecksTrip(t *testing.T) {
	lo, hi := vp.Vec3{}, vp.Vec3{X: 10, Y: 3, Z: 8}
	good := vp.LocateResult{Position: vp.Vec3{X: 5, Y: 1.5, Z: 4}, Yaw: 0.3}
	if err := checkAnswer(good, lo, hi); err != nil {
		t.Fatalf("good answer rejected: %v", err)
	}
	for name, bad := range map[string]vp.LocateResult{
		"nan":     {Position: vp.Vec3{X: math.NaN(), Y: 1, Z: 1}},
		"inf yaw": {Position: good.Position, Yaw: math.Inf(1)},
		"outside": {Position: vp.Vec3{X: 11, Y: 1, Z: 1}},
		"below":   {Position: vp.Vec3{X: 5, Y: -0.5, Z: 1}},
	} {
		if checkAnswer(bad, lo, hi) == nil {
			t.Errorf("corrupted answer %q passed the check", name)
		}
	}
	if checkUpload(selectCount) != nil || checkUpload(selectCount+1) == nil {
		t.Error("upload check does not bound keypoints by selectCount")
	}
	if checkMappings(110, 100, 10) != nil || checkMappings(109, 100, 10) == nil {
		t.Error("mapping check does not count acked ingests exactly")
	}

	o, err := vp.NewOracle(vp.ScaledOracleParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	desc := func() []byte {
		d := make([]byte, 128)
		rng.Read(d)
		return d
	}
	for i := 0; i < 50; i++ {
		if err := o.Insert(desc()); err != nil {
			t.Fatal(err)
		}
	}
	same, err := o.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkOracle(same, o); err != nil {
		t.Fatalf("identical oracles rejected: %v", err)
	}
	diverged, err := o.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := diverged.Insert(desc()); err != nil {
		t.Fatal(err)
	}
	if checkOracle(diverged, o) == nil {
		t.Error("diverged oracle passed the check")
	}

	// A violation makes the run's result incorrect.
	b := &bench{vals: map[string]float64{}}
	b.violation(checkAnswer(vp.LocateResult{Position: vp.Vec3{X: math.NaN()}}, lo, hi))
	if b.result().Correct {
		t.Error("result stays correct after a violation")
	}
}

// fingerprints returns the keypoints of every request one seed draws.
func fingerprints(t *testing.T, b *bench, seed int64) [][]vp.Keypoint {
	b.seed = seed
	p := newPhase(b, 0, 5*time.Second, false)
	reqs, err := p.requests(b, 20, p.dur, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]vp.Keypoint
	for _, r := range reqs {
		out = append(out, r.kps)
	}
	return out
}

func TestSeedsGiveDistinctFingerprints(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := &bench{}
	for v := 0; v < 4; v++ {
		kps := make([]vp.Keypoint, selectCount)
		for i := range kps {
			kps[i].X, kps[i].Y = rng.Float64()*frameW, rng.Float64()*frameH
			rng.Read(kps[i].Desc[:])
		}
		b.views = append(b.views, view{kps: kps, cam: vp.NewCamera(frameW, frameH)})
	}
	one, again, two := fingerprints(t, b, 1), fingerprints(t, b, 1), fingerprints(t, b, 2)
	if !reflect.DeepEqual(one, again) {
		t.Error("the same seed drew different requests")
	}
	seen := map[string]bool{}
	for _, set := range [][][]vp.Keypoint{one, two} {
		for _, kps := range set {
			key := string(vp.MarshalKeypoints(kps))
			if seen[key] {
				t.Fatal("two requests carry the same fingerprint")
			}
			seen[key] = true
		}
	}
}

// TestWalkShiftGivesDistinctFingerprints: two draws of the small walk
// shift of one rendered view still upload different fingerprints.
func TestWalkShiftGivesDistinctFingerprints(t *testing.T) {
	world := vp.BuildWorld(venueSpec)
	cams, err := walkCams(world, rand.New(rand.NewSource(poolSeed)), 1, walkStep)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := vp.Render(world, cams[0])
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	seen := map[string]bool{}
	for i := 0; i < 4; i++ {
		img := shiftImage(fr.Image, walkShift*(rng.Float64()-0.5), walkShift*(rng.Float64()-0.5))
		key := string(vp.MarshalKeypoints(vp.ExtractKeypoints(img, querySift())))
		if seen[key] {
			t.Fatal("two shifts of one view gave the same fingerprint")
		}
		seen[key] = true
	}
}

func TestShiftImageMovesContent(t *testing.T) {
	img := &vp.Image{W: 4, H: 1, Pix: []float32{0, 1, 2, 3}}
	got := shiftImage(img, 0.5, 0).Pix
	want := []float32{0.5, 1.5, 2.5, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("shift by half a pixel: got %v, want %v", got, want)
	}
}

func TestTailAndSelfTime(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, pct := tail(xs); v != 30 || pct != 75 {
		t.Errorf("tail of 1..40 = %v at p%v, want 30 at p75 (10 samples beyond)", v, pct)
	}
	spans := []span{
		{ID: 1, Name: "frame", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "sift.detect", Start: 0, End: 60},
		{ID: 3, Parent: 1, Name: "core.select", Start: 50, End: 70},
		{ID: 4, Parent: 1, Name: "server.query", Start: 80, End: 100},
	}
	self := selfTimes(spans)
	if got := self["frame"].SelfMs * 1e6; math.Abs(got-10) > 1e-9 {
		t.Errorf("frame self time %v ns, want 10 (overlapping children counted once)", got)
	}
	if got := self["sift.detect"].SelfMs * 1e6; math.Abs(got-60) > 1e-9 {
		t.Errorf("leaf self time %v ns, want its duration 60", got)
	}
}
