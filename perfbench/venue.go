package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	vp "visualprint"
)

// venueSpec is a small gallery: one-of-a-kind paintings, some repeated
// fixture panels, tiled floors and a few furniture boxes for ICP. It is
// fixed across seeds (the seed draws only the queries), and sized so that
// one full build takes a few seconds on two cores: setup_s is the median
// of setupReps builds in every run.
var venueSpec = vp.VenueSpec{
	Name: "perfbench-gallery", Width: 10, Depth: 8, Height: 3.5,
	PanelWidth: 2, UniqueFrac: 0.8, RepeatedFrac: 0.1,
	Seed: 306, TileSize: 0.8, AisleSpacing: 6,
	AisleUnique: 0.7, AisleRepeated: 0.15, Clutter: 4,
}

const (
	// Query frames are 320x240; the venue yields ~60 keypoints per frame
	// there, so selectCount sits below the median and the oracle filter
	// works on most frames.
	frameW, frameH = 320, 240
	selectCount    = 48
	setupReps      = 4
	// liveBatch is the mapping count of one streamed ingest batch on
	// wardrive-live: the held-out quarter is cut into batches this size
	// so the run sees enough ingests for a tail.
	liveBatch = 8
	// setupBatch is the mapping count of one setup ingest batch, about a
	// wardrive snapshot's. One batch per snapshot varied in size, and the
	// median of one build's batches ranged over 1.8x within a run; 8-mapping
	// batches agreed within ±5%, but their time was mostly wake-ups on the
	// loopback round trip and moved with the host more than setup_s did.
	setupBatch = 64
	// camMargin keeps generated cameras this far inside the walls.
	camMargin = 0.5
)

func wardriveConfig() vp.WardriveConfig {
	wd := vp.DefaultWardriveConfig()
	wd.ImageW, wd.ImageH = 200, 150
	wd.SweepDistances = []float64{2.5}
	wd.SweepYawOffsets = []float64{-0.2, 0.15}
	return wd
}

func querySift() vp.SiftConfig {
	sc := vp.DefaultSiftConfig()
	sc.ContrastThreshold = 0.02
	return sc
}

// venue is one built, listening server with its two client connections.
type venue struct {
	srv      *vp.Server
	conns    [2]*vp.Client
	sync     *vp.OracleSync // conn 0's oracle handle, synced at setup
	oracle   *vp.Oracle     // the client's copy used for SelectUnique
	mappings int            // server mapping count after setup
	held     [][]vp.Mapping // wardrive-live: batches streamed during the run
	dir      string
	// lo, hi bound every correct answer: the box of all wardrive
	// positions, padded by the 0.3 m the server pads its pose search box
	// with (plus rounding slack).
	lo, hi vp.Vec3
}

func (v *venue) close() {
	for _, c := range v.conns {
		if c != nil {
			c.Close()
		}
	}
	if v.srv != nil {
		v.srv.Close()
	}
	if v.dir != "" {
		os.RemoveAll(v.dir)
	}
}

// buildVenue builds the venue from nothing and reports its set-up time
// (Wardrive, CorrectDrift, ingest over connection 1, Listen, first
// OracleSync.Sync) and its server heap per mapping. dir, when non-empty,
// makes the server durable. holdOut keeps the last quarter of the
// wardrive back as liveBatch-sized batches. The setup ingest goes in
// setupBatch-sized batches, each timed into ingestMs and counted in ops.
func buildVenue(world *vp.World, dir string, holdOut bool, ops *opCount, ingestMs *[]float64) (v *venue, setupS, heapPerMapping float64, err error) {
	ctx := context.Background()
	t0 := time.Now()
	snaps, err := vp.Wardrive(world, wardriveConfig())
	if err != nil {
		return nil, 0, 0, fmt.Errorf("wardrive: %w", err)
	}
	if _, _, err := vp.CorrectDrift(snaps); err != nil {
		return nil, 0, 0, fmt.Errorf("correct drift: %w", err)
	}
	setup := snaps
	v = &venue{dir: dir}
	v.lo, v.hi = bounds(vp.MappingsFrom(snaps))
	if holdOut {
		cut := len(snaps) * 3 / 4
		setup = snaps[:cut]
		rest := vp.MappingsFrom(snaps[cut:])
		for len(rest) > 0 {
			n := min(liveBatch, len(rest))
			v.held = append(v.held, rest[:n])
			rest = rest[n:]
		}
	}
	paused := time.Now()
	var mem runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mem)
	heapBefore := mem.HeapAlloc
	t0 = t0.Add(time.Since(paused))

	fail := func(e error) (*venue, float64, float64, error) {
		v.close()
		return nil, 0, 0, e
	}
	if v.srv, err = vp.NewServer(vp.DefaultServerConfig()); err != nil {
		return fail(err)
	}
	if dir != "" {
		if err := v.srv.OpenData(dir); err != nil {
			return fail(err)
		}
	}
	addr, err := v.srv.Listen("127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	for i := range v.conns {
		if v.conns[i], err = vp.Connect(addr.String()); err != nil {
			return fail(err)
		}
	}
	for rest := vp.MappingsFrom(setup); len(rest) > 0; {
		batch := rest[:min(setupBatch, len(rest))]
		rest = rest[len(batch):]
		t := time.Now()
		total, err := v.conns[1].Ingest(ctx, batch)
		*ingestMs = append(*ingestMs, ms(time.Since(t)))
		ops.done(err)
		if err != nil {
			return fail(fmt.Errorf("setup ingest: %w", err))
		}
		v.mappings = total
	}
	paused = time.Now()
	runtime.GC()
	runtime.ReadMemStats(&mem)
	heapPerMapping = ratio(float64(mem.HeapAlloc)-float64(heapBefore), float64(v.mappings))
	runtime.KeepAlive(snaps)
	t0 = t0.Add(time.Since(paused))

	v.sync = v.conns[0].OracleSync()
	if v.oracle, err = v.sync.Sync(ctx); err != nil {
		return fail(fmt.Errorf("oracle sync: %w", err))
	}
	return v, time.Since(t0).Seconds(), heapPerMapping, nil
}

func bounds(ms []vp.Mapping) (lo, hi vp.Vec3) {
	lo, hi = ms[0].Pos, ms[0].Pos
	for _, m := range ms {
		p := m.Pos
		lo = vp.Vec3{X: math.Min(lo.X, p.X), Y: math.Min(lo.Y, p.Y), Z: math.Min(lo.Z, p.Z)}
		hi = vp.Vec3{X: math.Max(hi.X, p.X), Y: math.Max(hi.Y, p.Y), Z: math.Max(hi.Z, p.Z)}
	}
	pad := vp.Vec3{X: 0.3 + 1e-6, Y: 0.3 + 1e-6, Z: 0.3 + 1e-6}
	return lo.Sub(pad), hi.Add(pad)
}

// inside reports whether a camera position keeps camMargin from the walls.
func inside(world *vp.World, p vp.Vec3) bool {
	return p.X > world.Min.X+camMargin && p.X < world.Max.X-camMargin &&
		p.Z > world.Min.Z+camMargin && p.Z < world.Max.Z-camMargin
}

// wallPOIs are the wall panels a visitor looks at: unique paintings and
// repeated fixtures.
func wallPOIs(world *vp.World) []vp.POI {
	return append(world.POIsOfKind(vp.POIUnique), world.POIsOfKind(vp.POIRepeated)...)
}

// walkCams is the seeded ar-walk trajectory: a camera 2.2-2.8 m from a
// painting, facing it, sliding along the wall by walkStep per frame.
func walkCams(world *vp.World, rng *rand.Rand, frames int, step float64) ([]vp.Camera, error) {
	pois := world.POIsOfKind(vp.POIUnique)
	for try := 0; try < 200; try++ {
		poi := pois[rng.Intn(len(pois))]
		cam := vp.CameraFacing(world, poi, 2.2+0.6*rng.Float64(), 0, 0, frameW, frameH)
		// Slide along the wall: the horizontal perpendicular of its normal.
		tan := vp.Vec3{X: poi.Normal.Z, Z: -poi.Normal.X}
		if rng.Intn(2) == 0 {
			tan = tan.Scale(-1)
		}
		start := cam.Pos.Sub(tan.Scale(step * float64(frames-1) / 2))
		cams := make([]vp.Camera, frames)
		ok := true
		for i := range cams {
			cams[i] = cam
			cams[i].Pos = start.Add(tan.Scale(step * float64(i)))
			ok = ok && inside(world, cams[i].Pos)
		}
		if ok {
			return cams, nil
		}
	}
	return nil, fmt.Errorf("no walk fits inside the venue")
}

// viewCam draws a seeded first-fix view of a wall panel (a painting or a
// repeated fixture) from 1.8-3.0 m, with yaw and pitch offsets.
func viewCam(world *vp.World, rng *rand.Rand) (vp.Camera, error) {
	pois := wallPOIs(world)
	for try := 0; try < 1000; try++ {
		poi := pois[rng.Intn(len(pois))]
		cam := vp.CameraFacing(world, poi, 1.8+1.2*rng.Float64(), 0.5*(rng.Float64()-0.5), 0.1*(rng.Float64()-0.5), frameW, frameH)
		if inside(world, cam.Pos) {
			return cam, nil
		}
	}
	return vp.Camera{}, fmt.Errorf("no view fits inside the venue")
}

// shiftImage resamples img shifted by a sub-pixel (dx, dy) with bilinear
// interpolation: a reused view then yields a fingerprint no earlier
// request carried.
func shiftImage(img *vp.Image, dx, dy float64) *vp.Image {
	out := &vp.Image{W: img.W, H: img.H, Pix: make([]float32, len(img.Pix))}
	at := func(x, y int) float32 {
		x = min(max(x, 0), img.W-1)
		y = min(max(y, 0), img.H-1)
		return img.Pix[y*img.W+x]
	}
	fx, fy := float32(dx-math.Floor(dx)), float32(dy-math.Floor(dy))
	ox, oy := int(math.Floor(dx)), int(math.Floor(dy))
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			a, b := at(x+ox, y+oy), at(x+ox+1, y+oy)
			c, d := at(x+ox, y+oy+1), at(x+ox+1, y+oy+1)
			top := a + (b-a)*fx
			bot := c + (d-c)*fx
			out.Pix[y*img.W+x] = top + (bot-top)*fy
		}
	}
	return out
}

// jitterKeypoints copies kps with each pixel coordinate moved by up to a
// quarter pixel, so a reused pre-extracted fingerprint is still distinct.
func jitterKeypoints(kps []vp.Keypoint, rng *rand.Rand) []vp.Keypoint {
	out := append([]vp.Keypoint(nil), kps...)
	for i := range out {
		out[i].X += 0.5 * (rng.Float64() - 0.5)
		out[i].Y += 0.5 * (rng.Float64() - 0.5)
	}
	return out
}
