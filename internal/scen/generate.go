package scen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"

	"dronerl/internal/env"
	"dronerl/internal/geom"
)

// Generate synthesizes one world from the spec, fully deterministically:
// every placement decision, the drone's private RNG seed and its spawn pose
// derive from a single stream seeded by seed, so identical (spec, seed)
// pairs yield bit-identical worlds (WorldHash pins this in the tests) and
// the returned builder-ready world satisfies the scenario registry's
// pure-function-of-the-seed contract.
func Generate(spec GenSpec, seed int64) (*env.World, error) {
	v, err := spec.normalized()
	if err != nil {
		return nil, err
	}
	d := kindDefaults[v.Kind]
	rng := rand.New(rand.NewSource(seed))
	bounds := geom.Rect{Max: geom.Vec2{X: v.Size, Y: v.Size}}
	p := env.NewPlacer(rng, bounds, v.Corridor)

	// Interior walls first (they consume no spacing anchors), alternating
	// vertical and horizontal, each with a door gap three corridors wide so
	// the drone can always pass.
	gap := 3 * v.Corridor
	for i := 0; i < v.Walls; i++ {
		frac := 0.25 + float64(rng.Float64()*0.5)
		if i%2 == 0 {
			x := bounds.Min.X + float64(frac*v.Size)
			p.Wall(geom.Vec2{X: x, Y: bounds.Min.Y}, geom.Vec2{X: x, Y: bounds.Max.Y}, gap)
		} else {
			y := bounds.Min.Y + float64(frac*v.Size)
			p.Wall(geom.Vec2{X: bounds.Min.X, Y: y}, geom.Vec2{X: bounds.Max.X, Y: y}, gap)
		}
	}

	// Scatter the requested obstacle budget, discs then boxes. Placement
	// enforces the corridor spacing and saturates when nothing more fits.
	total := int(math.Round(v.Density * v.Size * v.Size / 100))
	boxes := int(math.Round(float64(total) * v.BoxFrac))
	p.Circles(total-boxes, d.circleRMin, d.circleRMax)
	p.Rects(boxes, d.boxMin, d.boxMax, d.boxMin, d.boxMax)

	// Turbulence degrades stereo matching; payload slows the frame advance
	// and fattens the collision body.
	stereo := env.DefaultStereo()
	stereo.NoisePx *= 1 + float64(3*v.Turbulence)
	cam := env.DefaultIndoorCamera()
	if v.Kind == Outdoor {
		cam = env.DefaultOutdoorCamera()
	}
	w := &env.World{
		Name: v.FamilyName(), Kind: v.Kind,
		Bounds: bounds, Obstacles: p.Obstacles(),
		DMin:            v.Corridor,
		DFrame:          d.dframe * (1 - float64(0.4*v.Payload)),
		CollisionRadius: d.collision * (1 + float64(0.3*v.Payload)),
		Camera:          cam, Stereo: stereo,
	}
	w.Seed(rng.Int63())
	w.Spawn()
	return w, nil
}

// WorldHash digests everything observable about a world — metadata, camera
// and stereo parameters, every obstacle's exact float64 geometry and the
// drone's spawn pose — into a hex SHA-256. Two worlds hash equal exactly
// when they are bit-identical, which is how the generator's determinism
// contract is pinned: TestBuiltinFamiliesWorldHashPinned and
// BenchmarkGenerateWorld.
func WorldHash(w *env.World) string {
	h := sha256.New()
	str := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	num := func(xs ...float64) {
		for _, x := range xs {
			binary.Write(h, binary.LittleEndian, math.Float64bits(x))
		}
	}
	str(w.Name)
	str(w.Kind)
	num(w.Bounds.Min.X, w.Bounds.Min.Y, w.Bounds.Max.X, w.Bounds.Max.Y)
	num(w.DMin, w.DFrame, w.CollisionRadius)
	num(w.Camera.FOVDeg, float64(w.Camera.Rays), w.Camera.MaxRange, w.Camera.CenterFrac)
	if w.Stereo != nil {
		num(w.Stereo.FocalPx, w.Stereo.BaselineM, w.Stereo.NoisePx)
	}
	for _, o := range w.Obstacles {
		switch t := o.(type) {
		case env.CircleObstacle:
			str("circle")
			num(t.C.X, t.C.Y, t.R)
		case env.RectObstacle:
			str("rect")
			num(t.Min.X, t.Min.Y, t.Max.X, t.Max.Y)
		case env.WallObstacle:
			str("wall")
			num(t.A.X, t.A.Y, t.B.X, t.B.Y)
		default:
			str(fmt.Sprintf("%#v", o))
		}
	}
	num(w.Drone.Pos.X, w.Drone.Pos.Y, w.Drone.Heading)
	return hex.EncodeToString(h.Sum(nil))
}
