// Package env simulates the drone-flight environments of the paper.
//
// The paper trains and tests in Unreal Engine 4 worlds (indoor apartment and
// house, outdoor forest and town, plus richer indoor/outdoor
// meta-environments) and derives the RL reward from a stereo-camera depth
// map. This package substitutes 2-D continuous worlds with procedurally
// generated obstacle layouts whose clutter matches the paper's d_min table
// (Fig. 1(c)), a ray-cast depth camera with a stereo-disparity noise model,
// and the paper's exact 5-action space (forward, turn left/right by 25 or
// 55 degrees). The observable quantity driving learning — the depth map and
// its centre-window average used as reward — is preserved.
package env

import (
	"fmt"
	"math"
	"math/rand"

	"dronerl/internal/geom"
)

// Action is one of the drone's five discrete actions. The encoding follows
// the paper: "under the action 0 the drone moves forward, 1 and 3 the drone
// turns left with turn angles 25 and 55 degrees and 2 and 4 the drone turns
// right with turn angles 25 and 55 degrees". Every action also advances the
// drone by one frame-distance, since the vehicle keeps a constant forward
// velocity.
type Action int

// The action space A = {0,1,2,3,4}.
const (
	Forward Action = iota
	Left25
	Right25
	Left55
	Right55
	// NumActions is the size of the action space.
	NumActions = 5
)

// String names the action.
func (a Action) String() string {
	switch a {
	case Forward:
		return "forward"
	case Left25:
		return "left25"
	case Right25:
		return "right25"
	case Left55:
		return "left55"
	case Right55:
		return "right55"
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

// TurnAngle returns the heading change in radians (positive =
// counterclockwise / left).
func (a Action) TurnAngle() float64 {
	switch a {
	case Left25:
		return geom.Deg(25)
	case Right25:
		return -geom.Deg(25)
	case Left55:
		return geom.Deg(55)
	case Right55:
		return -geom.Deg(55)
	default:
		return 0
	}
}

// Obstacle is anything the depth camera can see and the drone can crash
// into.
type Obstacle interface {
	// RayHit returns the distance along the ray to the obstacle surface.
	RayHit(r geom.Ray) (float64, bool)
	// Clearance returns the distance from p to the obstacle surface
	// (negative inside the obstacle).
	Clearance(p geom.Vec2) float64
}

// CircleObstacle is a disc (tree trunk, pillar, furniture).
type CircleObstacle struct{ geom.Circle }

// RayHit implements Obstacle.
func (c CircleObstacle) RayHit(r geom.Ray) (float64, bool) {
	return geom.IntersectRayCircle(r, c.Circle)
}

// Clearance implements Obstacle.
func (c CircleObstacle) Clearance(p geom.Vec2) float64 { return c.Circle.Distance(p) }

// RectObstacle is an axis-aligned box (house, car, cabinet).
type RectObstacle struct{ geom.Rect }

// RayHit implements Obstacle.
func (b RectObstacle) RayHit(r geom.Ray) (float64, bool) {
	return geom.IntersectRayRect(r, b.Rect)
}

// Clearance implements Obstacle.
func (b RectObstacle) Clearance(p geom.Vec2) float64 { return b.Rect.Distance(p) }

// WallObstacle is a thin wall segment (room partition).
type WallObstacle struct{ geom.Segment }

// RayHit implements Obstacle.
func (w WallObstacle) RayHit(r geom.Ray) (float64, bool) {
	return geom.IntersectRaySegment(r, w.Segment)
}

// Clearance implements Obstacle.
func (w WallObstacle) Clearance(p geom.Vec2) float64 { return w.Segment.Distance(p) }

// Pose is the drone's planar state.
type Pose struct {
	Pos     geom.Vec2
	Heading float64 // radians
}

// World is one simulated environment plus the drone flying in it.
type World struct {
	// Name identifies the environment ("indoor apartment", ...).
	Name string
	// Kind is "indoor" or "outdoor".
	Kind string
	// Bounds is the outer walled rectangle.
	Bounds geom.Rect
	// Obstacles is the static scene.
	Obstacles []Obstacle
	// DMin is the designed minimum obstacle spacing (paper Fig. 1(c)).
	DMin float64
	// DFrame is the distance flown between two camera frames.
	DFrame float64
	// CollisionRadius is the drone body radius for crash detection.
	CollisionRadius float64
	// Camera renders the depth observation.
	Camera DepthCamera
	// Stereo, if non-nil, adds stereo-matching noise to true depths.
	Stereo *StereoModel

	// Drone is the current pose.
	Drone Pose

	rng            *rand.Rand
	flightDistance float64
}

// StepResult is the outcome of one action.
type StepResult struct {
	// Depths is the post-move depth scan (noisy if Stereo is set).
	Depths []float64
	// Reward is the mean normalized depth of the centre window, in
	// [0, 1]; it is 0 on a crash.
	Reward float64
	// Crashed reports whether the move ended in a collision; the drone
	// has already been respawned when it is true.
	Crashed bool
	// FlightDistance is the distance flown since the last crash,
	// *before* any respawn (so on a crash it is the completed episode's
	// safe flight distance).
	FlightDistance float64
}

// Seed (re)seeds the world's private RNG; worlds are deterministic given a
// seed and action sequence.
func (w *World) Seed(seed int64) { w.rng = rand.New(rand.NewSource(seed)) }

// Clone returns an independent copy of the world for another drone to fly
// in: the mutable flight state (pose, rng, distance counter) is private to
// the copy while the immutable scene — bounds, obstacles, camera, stereo
// model — is shared, so cloning is cheap and concurrent clones may ray-cast
// the same scene safely. The clone starts with no RNG; Seed and Spawn it
// before flying.
func (w *World) Clone() *World {
	c := *w
	c.rng = nil
	return &c
}

// ensureRNG lazily provides a deterministic default RNG.
func (w *World) ensureRNG() *rand.Rand {
	if w.rng == nil {
		w.rng = rand.New(rand.NewSource(1))
	}
	return w.rng
}

// Clearance returns the smallest distance from p to any obstacle or
// boundary wall.
func (w *World) Clearance(p geom.Vec2) float64 {
	best := math.Inf(1)
	for _, e := range w.Bounds.Edges() {
		if d := e.Distance(p); d < best {
			best = d
		}
	}
	for _, o := range w.Obstacles {
		if d := o.Clearance(p); d < best {
			best = d
		}
	}
	return best
}

// RayDepth returns the true distance to the nearest surface along the ray,
// clamped to the camera's maximum range.
func (w *World) RayDepth(r geom.Ray) float64 {
	best := w.Camera.MaxRange
	for _, e := range w.Bounds.Edges() {
		if t, ok := geom.IntersectRaySegment(r, e); ok && t < best {
			best = t
		}
	}
	for _, o := range w.Obstacles {
		if t, ok := o.RayHit(r); ok && t < best {
			best = t
		}
	}
	return best
}

// Depths renders the depth scan from the drone's current pose, including
// stereo noise when configured.
func (w *World) Depths() []float64 {
	d := w.Camera.Scan(w, w.Drone)
	if w.Stereo != nil {
		rng := w.ensureRNG()
		for i, z := range d {
			d[i] = w.Stereo.Apply(z, w.Camera.MaxRange, rng)
		}
	}
	return d
}

// Reward computes the paper's reward from a depth scan: the depth map is
// "segmented into a smaller window in the center [and] the reward is taken
// to be the average depth in this center window", normalized by the camera
// range.
func (w *World) Reward(depths []float64) float64 {
	lo, hi := w.Camera.CenterWindow(len(depths))
	var s float64
	for _, z := range depths[lo:hi] {
		s += z
	}
	return s / (float64(hi-lo) * w.Camera.MaxRange)
}

// Spawn places the drone at a uniformly sampled collision-free pose with
// generous clearance and resets the flight-distance counter.
func (w *World) Spawn() {
	rng := w.ensureRNG()
	margin := w.CollisionRadius + float64(w.DMin/2)
	for try := 0; try < 10000; try++ {
		p := geom.Vec2{
			X: w.Bounds.Min.X + float64(rng.Float64()*(w.Bounds.Max.X-w.Bounds.Min.X)),
			Y: w.Bounds.Min.Y + float64(rng.Float64()*(w.Bounds.Max.Y-w.Bounds.Min.Y)),
		}
		if w.Clearance(p) < margin {
			continue
		}
		w.Drone = Pose{Pos: p, Heading: float64(rng.Float64()) * 2 * math.Pi}
		w.flightDistance = 0
		return
	}
	// Pathological worlds fall back to the centre.
	w.Drone = Pose{Pos: w.Bounds.Center()}
	w.flightDistance = 0
}

// Reset reseeds nothing but respawns the drone and returns the initial
// depth observation.
func (w *World) Reset() []float64 {
	w.Spawn()
	return w.Depths()
}

// FlightDistance returns the distance flown since the last crash.
func (w *World) FlightDistance() float64 { return w.flightDistance }

// Step applies an action: turn, fly one frame-distance forward, then sense.
// A collision ends the episode; the result carries the episode's safe
// flight distance and the drone respawns.
func (w *World) Step(a Action) StepResult {
	if a < 0 || a >= NumActions {
		panic(fmt.Sprintf("env: invalid action %d", int(a)))
	}
	w.Drone.Heading = geom.NormalizeAngle(w.Drone.Heading + a.TurnAngle())
	dir := geom.FromAngle(w.Drone.Heading)

	// Sweep the move in sub-steps so the drone cannot tunnel through a
	// thin wall within one frame-distance.
	steps := int(math.Ceil(w.DFrame/(w.CollisionRadius+1e-9))) + 1
	ds := w.DFrame / float64(steps)
	crashed := false
	for i := 0; i < steps; i++ {
		w.Drone.Pos = w.Drone.Pos.Add(dir.Scale(ds))
		w.flightDistance += ds
		if w.Clearance(w.Drone.Pos) < w.CollisionRadius {
			crashed = true
			break
		}
	}

	res := StepResult{Crashed: crashed, FlightDistance: w.flightDistance}
	if crashed {
		res.Reward = 0
		w.Spawn()
		res.Depths = w.Depths()
		return res
	}
	res.Depths = w.Depths()
	res.Reward = w.Reward(res.Depths)
	return res
}

// MinFPS returns the minimum camera frame rate needed for obstacle
// avoidance at the given velocity, fps = v / d_min, reproducing the paper's
// Fig. 1 relationship between speed, clutter and frame rate.
func (w *World) MinFPS(velocity float64) float64 { return velocity / w.DMin }
