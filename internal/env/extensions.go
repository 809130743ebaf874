package env

import "dronerl/internal/geom"

// Extensions beyond the paper's six environments.
//
// OutdoorMetaRich implements the paper's closing remark on the outdoor-town
// degradation: "This can be further improved by performing TL on richer
// meta-environments." It augments the outdoor meta-world with box-shaped
// structures (buildings, vehicles) so the meta-model sees town-like
// geometry during transfer learning. The richer-meta ablation
// (core.NewRicherMetaExperiment, BenchmarkAblationRicherMeta) measures the
// town transfer gap with and without it.
//
// Warehouse demonstrates that the environment generator "can be extended to
// other environment types as well" (Section II.D): an indoor/industrial
// hybrid with shelving rows at forklift-aisle spacing.

// OutdoorMetaRich generates a meta-environment spanning both vegetation
// (cylinders) and built structures (boxes), unlike OutdoorMeta's
// cylinder-dominated landscape.
func OutdoorMetaRich(seed int64) *World {
	b := newPlacer(seed, geom.Rect{Min: geom.Vec2{}, Max: geom.Vec2{X: 100, Y: 100}}, 3.5)
	b.Circles(60, 0.40, 1.40)
	b.Rects(16, 5, 10, 5, 10)       // buildings, town-scale
	b.Rects(10, 1.8, 2.2, 4.2, 5.0) // vehicles
	w := b.world("outdoor meta rich", "outdoor", outdoorDFrame, outdoorCollision, DefaultOutdoorCamera())
	return w
}

// Warehouse generates an industrial interior: long shelving rows (boxes)
// with regular aisles, plus scattered pallets. d_min follows the indoor
// regime of Fig. 1(c).
func Warehouse(seed int64) *World {
	b := newPlacer(seed, geom.Rect{Min: geom.Vec2{}, Max: geom.Vec2{X: 30, Y: 30}}, 1.2)
	// Shelving rows: aligned rectangles with aisles between them. Placed
	// manually (not via Rects) so rows stay parallel; the placer's
	// anchors still record them for spacing of later clutter.
	for i := 0; i < 4; i++ {
		y := 5.0 + float64(float64(i)*6.5)
		row := geom.Rect{Min: geom.Vec2{X: 4, Y: y}, Max: geom.Vec2{X: 26, Y: y + 1.2}}
		b.obs = append(b.obs, RectObstacle{row})
		b.anchors = append(b.anchors, geom.Circle{C: row.Center(), R: 11})
	}
	b.Circles(8, 0.3, 0.5) // pallets and drums in the aisles
	return b.world("warehouse", "indoor", indoorDFrame, indoorCollision, DefaultIndoorCamera())
}
