// Package geom provides the 2-D geometry substrate for the drone-flight
// simulator: vectors, rays, and ray-obstacle intersection tests used by the
// simulated stereo depth camera.
package geom

import "math"

// Vec2 is a 2-D point or direction.
type Vec2 struct {
	X, Y float64
}

// Add returns v + o.
func (v Vec2) Add(o Vec2) Vec2 { return Vec2{v.X + o.X, v.Y + o.Y} }

// Sub returns v - o.
func (v Vec2) Sub(o Vec2) Vec2 { return Vec2{v.X - o.X, v.Y - o.Y} }

// Scale returns s*v.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{float64(s * v.X), float64(s * v.Y)} }

// Dot returns the dot product.
func (v Vec2) Dot(o Vec2) float64 { return float64(v.X*o.X) + float64(v.Y*o.Y) }

// Cross returns the scalar cross product (z-component). TestVecBasics pins
// its sign.
func (v Vec2) Cross(o Vec2) float64 { return float64(v.X*o.Y) - float64(v.Y*o.X) }

// Len returns the Euclidean norm.
func (v Vec2) Len() float64 { return math.Hypot(v.X, v.Y) }

// Dist returns the distance between two points.
func (v Vec2) Dist(o Vec2) float64 { return v.Sub(o).Len() }

// Unit returns v normalized to length 1; the zero vector is returned
// unchanged.
func (v Vec2) Unit() Vec2 {
	l := v.Len()
	if l == 0 {
		return v
	}
	return v.Scale(1 / l)
}

// FromAngle returns the unit vector at the given heading in radians.
func FromAngle(rad float64) Vec2 {
	s, c := math.Sincos(rad)
	return Vec2{c, s}
}

// Ray is a half-line from origin O along unit direction D.
type Ray struct {
	O, D Vec2
}

// At returns the point at parameter t along the ray.
func (r Ray) At(t float64) Vec2 { return r.O.Add(r.D.Scale(t)) }

// Circle is a disc obstacle.
type Circle struct {
	C Vec2
	R float64
}

// Contains reports whether p lies inside the circle.
func (c Circle) Contains(p Vec2) bool { return p.Dist(c.C) <= c.R }

// Distance returns the clearance from p to the circle boundary (negative
// inside).
func (c Circle) Distance(p Vec2) float64 { return p.Dist(c.C) - c.R }

// IntersectRayCircle returns the smallest non-negative ray parameter at
// which the ray hits the circle, and whether it hits at all.
func IntersectRayCircle(r Ray, c Circle) (float64, bool) {
	oc := r.O.Sub(c.C)
	b := oc.Dot(r.D)
	q := oc.Dot(oc) - float64(c.R*c.R)
	disc := float64(b*b) - q
	if disc < 0 {
		return 0, false
	}
	sq := math.Sqrt(disc)
	t := -b - sq
	if t < 0 {
		t = -b + sq
	}
	if t < 0 {
		return 0, false
	}
	return t, true
}

// Segment is a line segment obstacle (a wall).
type Segment struct {
	A, B Vec2
}

// Length returns the segment length.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// Distance returns the distance from p to the closest point of the segment.
func (s Segment) Distance(p Vec2) float64 {
	ab := s.B.Sub(s.A)
	t := p.Sub(s.A).Dot(ab) / ab.Dot(ab)
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return p.Dist(s.A.Add(ab.Scale(t)))
}

// IntersectRaySegment returns the smallest non-negative ray parameter at
// which the ray crosses the segment, and whether it does.
func IntersectRaySegment(r Ray, s Segment) (float64, bool) {
	// Solve O + t*D = A + u*(B-A) by crossing both sides with D and with
	// (B-A): t = (v1 x v2)/(v2 x D), u = (v1 x D)/(v2 x D), v1 = O-A.
	v1 := r.O.Sub(s.A)
	v2 := s.B.Sub(s.A)
	denom := v2.Cross(r.D)
	if math.Abs(denom) < 1e-12 {
		return 0, false // parallel
	}
	t := v1.Cross(v2) / denom
	u := v1.Cross(r.D) / denom
	if t < 0 || u < 0 || u > 1 {
		return 0, false
	}
	return t, true
}

// Rect is an axis-aligned box obstacle.
type Rect struct {
	Min, Max Vec2
}

// Contains reports whether p lies inside the rectangle.
func (rc Rect) Contains(p Vec2) bool {
	return p.X >= rc.Min.X && p.X <= rc.Max.X && p.Y >= rc.Min.Y && p.Y <= rc.Max.Y
}

// Distance returns the clearance from p to the rectangle boundary
// (negative inside).
func (rc Rect) Distance(p Vec2) float64 {
	dx := math.Max(math.Max(rc.Min.X-p.X, 0), p.X-rc.Max.X)
	dy := math.Max(math.Max(rc.Min.Y-p.Y, 0), p.Y-rc.Max.Y)
	if rc.Contains(p) {
		// Negative distance to the nearest edge.
		d := math.Min(math.Min(p.X-rc.Min.X, rc.Max.X-p.X), math.Min(p.Y-rc.Min.Y, rc.Max.Y-p.Y))
		return -d
	}
	return math.Hypot(dx, dy)
}

// Edges returns the rectangle's four boundary segments.
func (rc Rect) Edges() [4]Segment {
	a := rc.Min
	b := Vec2{rc.Max.X, rc.Min.Y}
	c := rc.Max
	d := Vec2{rc.Min.X, rc.Max.Y}
	return [4]Segment{{a, b}, {b, c}, {c, d}, {d, a}}
}

// IntersectRayRect returns the smallest non-negative ray parameter at which
// the ray hits the rectangle boundary, and whether it hits.
func IntersectRayRect(r Ray, rc Rect) (float64, bool) {
	best := math.Inf(1)
	hit := false
	for _, e := range rc.Edges() {
		if t, ok := IntersectRaySegment(r, e); ok && t < best {
			best = t
			hit = true
		}
	}
	if !hit {
		return 0, false
	}
	return best, true
}

// Center returns the rectangle's center point.
func (rc Rect) Center() Vec2 {
	return Vec2{(rc.Min.X + rc.Max.X) / 2, (rc.Min.Y + rc.Max.Y) / 2}
}

// NormalizeAngle wraps an angle to (-pi, pi].
func NormalizeAngle(rad float64) float64 {
	for rad > math.Pi {
		rad -= 2 * math.Pi
	}
	for rad <= -math.Pi {
		rad += 2 * math.Pi
	}
	return rad
}

// Deg converts degrees to radians.
func Deg(d float64) float64 { return d * math.Pi / 180 }
