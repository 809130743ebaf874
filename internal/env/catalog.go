package env

import (
	"math/rand"

	"dronerl/internal/geom"
)

// This file procedurally generates the six environments of the paper
// (Fig. 9 and Section VI.B): two meta-environments used for transfer
// learning and four test environments (indoor apartment, indoor house,
// outdoor forest, outdoor town). Clutter densities follow the d_min table
// of Fig. 1(c): 0.7–1.3 m indoors, 3–5 m outdoors.
//
// The meta-environments are intentionally *richer* than any single test
// environment (the paper trains on "complex meta-training-environments").
// The outdoor town is intentionally the most dissimilar from the outdoor
// meta-environment — its obstacles are box-shaped buildings and cars rather
// than the meta-world's mostly-cylindrical vegetation — mirroring the
// paper's observation that "in outdoor town environments the meta-
// environment and test environments show large disparities ... and shows
// the largest degradation".

// Placer scatters obstacles under the d_min spacing rule: every new one keeps
// at least d_min of free surface-to-surface space from the ones already
// placed and from the outer wall, so a corridor always exists. Every random
// decision comes from the caller's stream, so a world built on it is a pure
// function of that stream's seed. The catalog's worlds and internal/scen's
// generated families both place through it.
type Placer struct {
	rng    *rand.Rand
	bounds geom.Rect
	dmin   float64
	obs    []Obstacle
	// anchors approximates each placed obstacle by centre+radius for the
	// spacing test.
	anchors []geom.Circle
}

// NewPlacer starts an empty placement inside bounds with spacing dmin,
// drawing from rng.
func NewPlacer(rng *rand.Rand, bounds geom.Rect, dmin float64) *Placer {
	return &Placer{rng: rng, bounds: bounds, dmin: dmin}
}

func newPlacer(seed int64, bounds geom.Rect, dmin float64) *Placer {
	return NewPlacer(rand.New(rand.NewSource(seed)), bounds, dmin)
}

// Obstacles returns what has been placed so far.
func (b *Placer) Obstacles() []Obstacle { return b.obs }

func (b *Placer) randPoint(margin float64) geom.Vec2 {
	return geom.Vec2{
		X: b.bounds.Min.X + margin + float64(b.rng.Float64()*(b.bounds.Max.X-b.bounds.Min.X-float64(2*margin))),
		Y: b.bounds.Min.Y + margin + float64(b.rng.Float64()*(b.bounds.Max.Y-b.bounds.Min.Y-float64(2*margin))),
	}
}

// fits reports whether a new obstacle approximated by (c, r) keeps at least
// d_min of free surface-to-surface space from all existing obstacles.
func (b *Placer) fits(c geom.Vec2, r float64) bool {
	for _, a := range b.anchors {
		if c.Dist(a.C) < r+a.R+b.dmin {
			return false
		}
	}
	// Keep obstacles off the outer wall so a corridor always exists.
	for _, e := range b.bounds.Edges() {
		if e.Distance(c) < r+b.dmin {
			return false
		}
	}
	return true
}

// Circles scatters n discs with radii in [rmin, rmax]; it gives up after
// 200n draws when nothing more fits.
func (b *Placer) Circles(n int, rmin, rmax float64) {
	for placed, tries := 0, 0; placed < n && tries < n*200; tries++ {
		r := rmin + float64(b.rng.Float64()*(rmax-rmin))
		c := b.randPoint(r + b.dmin)
		if !b.fits(c, r) {
			continue
		}
		b.obs = append(b.obs, CircleObstacle{geom.Circle{C: c, R: r}})
		b.anchors = append(b.anchors, geom.Circle{C: c, R: r})
		placed++
	}
}

// Rects scatters n axis-aligned boxes with sides in [smin, smax] x
// [tmin, tmax], under the same budget as Circles.
func (b *Placer) Rects(n int, smin, smax, tmin, tmax float64) {
	for placed, tries := 0, 0; placed < n && tries < n*200; tries++ {
		w := smin + float64(b.rng.Float64()*(smax-smin))
		h := tmin + float64(b.rng.Float64()*(tmax-tmin))
		r := float64(0.5 * geom.Vec2{X: w, Y: h}.Len()) // bounding radius
		c := b.randPoint(r + b.dmin)
		if !b.fits(c, r) {
			continue
		}
		rect := geom.Rect{
			Min: geom.Vec2{X: c.X - float64(w/2), Y: c.Y - float64(h/2)},
			Max: geom.Vec2{X: c.X + float64(w/2), Y: c.Y + float64(h/2)},
		}
		b.obs = append(b.obs, RectObstacle{rect})
		b.anchors = append(b.anchors, geom.Circle{C: c, R: r})
		placed++
	}
}

// Wall adds a straight interior wall between two points with a door gap of
// the given width somewhere in its middle half, split into two segments.
func (b *Placer) Wall(from, to geom.Vec2, gapWidth float64) {
	dir := to.Sub(from)
	length := dir.Len()
	if length <= gapWidth {
		return
	}
	u := dir.Unit()
	gapCenter := 0.3 + float64(b.rng.Float64()*0.4)
	gc := from.Add(u.Scale(length * gapCenter))
	g0 := gc.Sub(u.Scale(gapWidth / 2))
	g1 := gc.Add(u.Scale(gapWidth / 2))
	b.obs = append(b.obs, WallObstacle{geom.Segment{A: from, B: g0}})
	b.obs = append(b.obs, WallObstacle{geom.Segment{A: g1, B: to}})
}

func (b *Placer) world(name, kind string, dframe, collision float64, cam DepthCamera) *World {
	w := &World{
		Name: name, Kind: kind,
		Bounds: b.bounds, Obstacles: b.obs,
		DMin: b.dmin, DFrame: dframe, CollisionRadius: collision,
		Camera: cam, Stereo: DefaultStereo(),
	}
	w.Seed(b.rng.Int63())
	w.Spawn()
	return w
}

// Indoor worlds fly slowly in tight spaces; outdoor worlds cover more
// ground per frame.
const (
	indoorDFrame     = 0.30
	outdoorDFrame    = 1.00
	indoorCollision  = 0.25
	outdoorCollision = 0.30
)

// IndoorApartment generates the paper's "indoor apartment" test world:
// a small flat partitioned by walls with doorways and cluttered with
// furniture-scale obstacles (d_min = 0.7 m, the tightest environment of
// Fig. 1(c)).
func IndoorApartment(seed int64) *World {
	b := newPlacer(seed, geom.Rect{Min: geom.Vec2{}, Max: geom.Vec2{X: 20, Y: 20}}, 0.7)
	b.Wall(geom.Vec2{X: 10, Y: 0}, geom.Vec2{X: 10, Y: 20}, 2.2)
	b.Wall(geom.Vec2{X: 0, Y: 12}, geom.Vec2{X: 20, Y: 12}, 2.2)
	b.Circles(22, 0.20, 0.45)
	return b.world("indoor apartment", "indoor", indoorDFrame, indoorCollision, DefaultIndoorCamera())
}

// IndoorHouse generates the "indoor house" test world: larger rooms,
// mixed round and boxy furniture, d_min = 1.0 m.
func IndoorHouse(seed int64) *World {
	b := newPlacer(seed, geom.Rect{Min: geom.Vec2{}, Max: geom.Vec2{X: 24, Y: 24}}, 1.0)
	b.Wall(geom.Vec2{X: 12, Y: 0}, geom.Vec2{X: 12, Y: 24}, 2.6)
	b.Wall(geom.Vec2{X: 0, Y: 8}, geom.Vec2{X: 12, Y: 8}, 2.6)
	b.Circles(14, 0.25, 0.50)
	b.Rects(6, 0.6, 1.4, 0.6, 1.4)
	return b.world("indoor house", "indoor", indoorDFrame, indoorCollision, DefaultIndoorCamera())
}

// IndoorEasy generates a sparse open room at the loose end of the indoor
// d_min range (1.3 m, Fig. 1(c)'s "Indoor 3"): no interior walls, light
// round clutter. It is the convergence-test workload — easy enough that a
// short online run reaches a stable reward, which is what the quantized-vs-
// float training parity tests need.
func IndoorEasy(seed int64) *World {
	b := newPlacer(seed, geom.Rect{Min: geom.Vec2{}, Max: geom.Vec2{X: 22, Y: 22}}, 1.3)
	b.Circles(8, 0.25, 0.45)
	return b.world("indoor easy", "indoor", indoorDFrame, indoorCollision, DefaultIndoorCamera())
}

// IndoorMeta generates the indoor meta-environment used for transfer
// learning: a larger, more varied interior spanning the full indoor d_min
// range (0.7–1.3 m) with walls, round and boxy clutter.
func IndoorMeta(seed int64) *World {
	b := newPlacer(seed, geom.Rect{Min: geom.Vec2{}, Max: geom.Vec2{X: 30, Y: 30}}, 0.9)
	b.Wall(geom.Vec2{X: 10, Y: 0}, geom.Vec2{X: 10, Y: 30}, 2.4)
	b.Wall(geom.Vec2{X: 20, Y: 0}, geom.Vec2{X: 20, Y: 30}, 2.4)
	b.Wall(geom.Vec2{X: 0, Y: 15}, geom.Vec2{X: 30, Y: 15}, 2.4)
	b.Circles(30, 0.20, 0.55)
	b.Rects(8, 0.6, 1.5, 0.6, 1.5)
	return b.world("indoor meta", "indoor", indoorDFrame, indoorCollision, DefaultIndoorCamera())
}

// OutdoorForest generates the "outdoor forest" test world: cylindrical
// trunks with d_min = 3 m spacing.
func OutdoorForest(seed int64) *World {
	b := newPlacer(seed, geom.Rect{Min: geom.Vec2{}, Max: geom.Vec2{X: 80, Y: 80}}, 3.0)
	b.Circles(90, 0.40, 1.00)
	return b.world("outdoor forest", "outdoor", outdoorDFrame, outdoorCollision, DefaultOutdoorCamera())
}

// OutdoorTown generates the "outdoor town" test world: box-shaped houses
// and cars with d_min = 4 m spacing. Its obstacle shapes deliberately
// diverge from the outdoor meta-environment (boxes vs cylinders), which is
// why transfer learning degrades most here, as in the paper.
func OutdoorTown(seed int64) *World {
	b := newPlacer(seed, geom.Rect{Min: geom.Vec2{}, Max: geom.Vec2{X: 80, Y: 80}}, 4.0)
	b.Rects(14, 5, 10, 5, 10)       // houses
	b.Rects(12, 1.8, 2.2, 4.2, 5.0) // parked cars
	b.Circles(6, 0.4, 0.8)          // a few street trees
	return b.world("outdoor town", "outdoor", outdoorDFrame, outdoorCollision, DefaultOutdoorCamera())
}

// OutdoorMeta generates the outdoor meta-environment: a large mixed
// landscape, mostly vegetation-like cylinders across the full outdoor
// d_min range (3–5 m) with a few structures.
func OutdoorMeta(seed int64) *World {
	b := newPlacer(seed, geom.Rect{Min: geom.Vec2{}, Max: geom.Vec2{X: 100, Y: 100}}, 3.5)
	b.Circles(110, 0.40, 1.40)
	b.Rects(6, 4, 8, 4, 8)
	return b.world("outdoor meta", "outdoor", outdoorDFrame, outdoorCollision, DefaultOutdoorCamera())
}

// TestEnvironments returns the four test worlds of Fig. 9/10/11 in the
// paper's plotting order.
func TestEnvironments(seed int64) []*World {
	return []*World{IndoorApartment(seed + 1), IndoorHouse(seed + 2), OutdoorForest(seed + 3), OutdoorTown(seed + 4)}
}

// MetaFor returns the meta-environment matching a test world's kind — the
// "correct meta-model (indoor or outdoor model)" the paper downloads at
// deployment.
func MetaFor(w *World, seed int64) *World {
	if w.Kind == "outdoor" {
		return OutdoorMeta(seed)
	}
	return IndoorMeta(seed)
}

// Fig1DMin reproduces the d_min table of Fig. 1(c): the designed minimum
// obstacle distance for the paper's three indoor and three outdoor
// environment classes.
var Fig1DMin = []struct {
	Name string
	DMin float64
}{
	{"Indoor 1", 0.7},
	{"Indoor 2", 1.0},
	{"Indoor 3", 1.3},
	{"Outdoor 1", 3.0},
	{"Outdoor 2", 4.0},
	{"Outdoor 3", 5.0},
}
