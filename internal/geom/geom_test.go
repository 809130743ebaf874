package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVecBasics(t *testing.T) {
	a := Vec2{3, 4}
	if a.Len() != 5 {
		t.Errorf("Len = %v", a.Len())
	}
	if a.Add(Vec2{1, 1}) != (Vec2{4, 5}) {
		t.Error("Add wrong")
	}
	if a.Sub(Vec2{1, 1}) != (Vec2{2, 3}) {
		t.Error("Sub wrong")
	}
	if a.Scale(2) != (Vec2{6, 8}) {
		t.Error("Scale wrong")
	}
	if a.Dot(Vec2{1, 0}) != 3 {
		t.Error("Dot wrong")
	}
	if a.Cross(Vec2{1, 0}) != -4 {
		t.Error("Cross wrong")
	}
}

func TestUnitLength(t *testing.T) {
	err := quick.Check(func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			return true
		}
		x, y = math.Mod(x, 1e3), math.Mod(y, 1e3)
		v := Vec2{x, y}
		if v.Len() == 0 {
			return v.Unit() == v
		}
		return almostEq(v.Unit().Len(), 1, 1e-9)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestFromAngle(t *testing.T) {
	v := FromAngle(0)
	if !almostEq(v.X, 1, 1e-12) || !almostEq(v.Y, 0, 1e-12) {
		t.Errorf("FromAngle(0) = %v", v)
	}
	v = FromAngle(math.Pi)
	if !almostEq(v.X, -1, 1e-12) {
		t.Errorf("FromAngle(pi) = %v", v)
	}
}

func TestRayCircleHeadOn(t *testing.T) {
	r := Ray{O: Vec2{0, 0}, D: Vec2{1, 0}}
	c := Circle{C: Vec2{5, 0}, R: 1}
	tHit, ok := IntersectRayCircle(r, c)
	if !ok || !almostEq(tHit, 4, 1e-9) {
		t.Errorf("head-on hit = (%v,%v), want (4,true)", tHit, ok)
	}
}

func TestRayCircleMiss(t *testing.T) {
	r := Ray{O: Vec2{0, 0}, D: Vec2{1, 0}}
	c := Circle{C: Vec2{5, 3}, R: 1}
	if _, ok := IntersectRayCircle(r, c); ok {
		t.Error("ray should miss circle offset by 3 with radius 1")
	}
}

func TestRayCircleBehind(t *testing.T) {
	r := Ray{O: Vec2{0, 0}, D: Vec2{1, 0}}
	c := Circle{C: Vec2{-5, 0}, R: 1}
	if _, ok := IntersectRayCircle(r, c); ok {
		t.Error("circle behind the ray origin must not hit")
	}
}

func TestRayCircleFromInside(t *testing.T) {
	r := Ray{O: Vec2{0, 0}, D: Vec2{1, 0}}
	c := Circle{C: Vec2{0, 0}, R: 2}
	tHit, ok := IntersectRayCircle(r, c)
	if !ok || !almostEq(tHit, 2, 1e-9) {
		t.Errorf("inside hit = (%v,%v), want (2,true)", tHit, ok)
	}
}

func TestRaySegmentPerpendicular(t *testing.T) {
	r := Ray{O: Vec2{0, 0}, D: Vec2{1, 0}}
	s := Segment{A: Vec2{2, -1}, B: Vec2{2, 1}}
	tHit, ok := IntersectRaySegment(r, s)
	if !ok || !almostEq(tHit, 2, 1e-9) {
		t.Errorf("hit = (%v,%v), want (2,true)", tHit, ok)
	}
}

func TestRaySegmentMissShort(t *testing.T) {
	r := Ray{O: Vec2{0, 0}, D: Vec2{1, 0}}
	s := Segment{A: Vec2{2, 1}, B: Vec2{2, 3}}
	if _, ok := IntersectRaySegment(r, s); ok {
		t.Error("segment above the ray must not hit")
	}
}

func TestRaySegmentParallel(t *testing.T) {
	r := Ray{O: Vec2{0, 0}, D: Vec2{1, 0}}
	s := Segment{A: Vec2{1, 1}, B: Vec2{5, 1}}
	if _, ok := IntersectRaySegment(r, s); ok {
		t.Error("parallel segment must not hit")
	}
}

func TestRaySegmentBehind(t *testing.T) {
	r := Ray{O: Vec2{0, 0}, D: Vec2{1, 0}}
	s := Segment{A: Vec2{-2, -1}, B: Vec2{-2, 1}}
	if _, ok := IntersectRaySegment(r, s); ok {
		t.Error("segment behind origin must not hit")
	}
}

func TestSegmentDistance(t *testing.T) {
	s := Segment{A: Vec2{0, 0}, B: Vec2{10, 0}}
	if !almostEq(s.Distance(Vec2{5, 3}), 3, 1e-12) {
		t.Error("perpendicular distance wrong")
	}
	if !almostEq(s.Distance(Vec2{-3, 4}), 5, 1e-12) {
		t.Error("endpoint distance wrong")
	}
	if s.Length() != 10 {
		t.Error("length wrong")
	}
}

func TestRectDistanceAndContains(t *testing.T) {
	rc := Rect{Min: Vec2{0, 0}, Max: Vec2{4, 4}}
	if !rc.Contains(Vec2{2, 2}) {
		t.Error("center must be inside")
	}
	if rc.Contains(Vec2{5, 2}) {
		t.Error("outside point flagged inside")
	}
	if !almostEq(rc.Distance(Vec2{7, 2}), 3, 1e-12) {
		t.Errorf("edge distance = %v", rc.Distance(Vec2{7, 2}))
	}
	if !almostEq(rc.Distance(Vec2{7, 8}), 5, 1e-12) {
		t.Errorf("corner distance = %v", rc.Distance(Vec2{7, 8}))
	}
	if rc.Distance(Vec2{2, 2}) >= 0 {
		t.Error("inside distance must be negative")
	}
	if rc.Center() != (Vec2{2, 2}) {
		t.Error("center wrong")
	}
}

func TestRayRect(t *testing.T) {
	rc := Rect{Min: Vec2{2, -1}, Max: Vec2{4, 1}}
	r := Ray{O: Vec2{0, 0}, D: Vec2{1, 0}}
	tHit, ok := IntersectRayRect(r, rc)
	if !ok || !almostEq(tHit, 2, 1e-9) {
		t.Errorf("rect hit = (%v,%v), want (2,true)", tHit, ok)
	}
	r2 := Ray{O: Vec2{0, 5}, D: Vec2{1, 0}}
	if _, ok := IntersectRayRect(r2, rc); ok {
		t.Error("ray above rect must miss")
	}
}

func TestRayHitPointOnObstacle(t *testing.T) {
	// Property: the hit point returned by the parameter is on the circle.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		r := Ray{O: Vec2{rng.NormFloat64() * 5, rng.NormFloat64() * 5}, D: FromAngle(rng.Float64() * 2 * math.Pi)}
		c := Circle{C: Vec2{rng.NormFloat64() * 5, rng.NormFloat64() * 5}, R: 0.5 + rng.Float64()*2}
		if tHit, ok := IntersectRayCircle(r, c); ok {
			p := r.At(tHit)
			if !almostEq(p.Dist(c.C), c.R, 1e-6) && !c.Contains(r.O) {
				t.Fatalf("hit point %v not on circle (dist %v, R %v)", p, p.Dist(c.C), c.R)
			}
		}
	}
}

func TestNormalizeAngle(t *testing.T) {
	if !almostEq(NormalizeAngle(3*math.Pi), math.Pi, 1e-9) {
		t.Errorf("NormalizeAngle(3pi) = %v", NormalizeAngle(3*math.Pi))
	}
	if !almostEq(NormalizeAngle(-3*math.Pi), math.Pi, 1e-9) {
		t.Errorf("NormalizeAngle(-3pi) = %v", NormalizeAngle(-3*math.Pi))
	}
	if NormalizeAngle(0.5) != 0.5 {
		t.Error("in-range angle must be unchanged")
	}
}

func TestDeg(t *testing.T) {
	if !almostEq(Deg(180), math.Pi, 1e-12) {
		t.Error("Deg(180) != pi")
	}
	// The paper's turn angles.
	if !almostEq(Deg(25), 0.4363, 1e-3) || !almostEq(Deg(55), 0.9599, 1e-3) {
		t.Error("25/55 degree conversions wrong")
	}
}
