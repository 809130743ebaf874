package env

import (
	"strings"

	"dronerl/internal/geom"
)

// Render draws an ASCII top-down map of the world, the stand-in for the
// paper's Fig. 9 environment screenshots: '#' outer walls, 'o' round
// obstacles, '[' ']' boxes, '|' interior walls, 'D' the drone.
func (w *World) Render(cols, rows int) string {
	if cols < 4 || rows < 4 {
		cols, rows = 40, 20
	}
	grid := make([][]byte, rows)
	for y := range grid {
		grid[y] = make([]byte, cols)
		for x := range grid[y] {
			grid[y][x] = ' '
		}
	}
	size := w.Bounds.Max.Sub(w.Bounds.Min)
	toCell := func(p geom.Vec2) (int, int, bool) {
		fx := (p.X - w.Bounds.Min.X) / size.X
		fy := (p.Y - w.Bounds.Min.Y) / size.Y
		x := int(fx * float64(cols))
		y := int(fy * float64(rows))
		if x < 0 || x >= cols || y < 0 || y >= rows {
			return 0, 0, false
		}
		return x, y, true
	}
	// Sample every cell centre against the obstacle set.
	for y := 0; y < rows; y++ {
		for x := 0; x < cols; x++ {
			p := geom.Vec2{
				X: w.Bounds.Min.X + float64((float64(x)+0.5)/float64(cols)*size.X),
				Y: w.Bounds.Min.Y + float64((float64(y)+0.5)/float64(rows)*size.Y),
			}
			cell := byte(' ')
			// Cell footprint radius in world units.
			r := 0.5 * size.X / float64(cols)
			for _, o := range w.Obstacles {
				if o.Clearance(p) > r {
					continue
				}
				switch o.(type) {
				case CircleObstacle:
					cell = 'o'
				case RectObstacle:
					cell = '#'
				case WallObstacle:
					cell = '|'
				}
				break
			}
			grid[y][x] = cell
		}
	}
	// Outer walls.
	for x := 0; x < cols; x++ {
		grid[0][x], grid[rows-1][x] = '#', '#'
	}
	for y := 0; y < rows; y++ {
		grid[y][0], grid[y][cols-1] = '#', '#'
	}
	if x, y, ok := toCell(w.Drone.Pos); ok {
		grid[y][x] = 'D'
	}
	var sb strings.Builder
	sb.WriteString(w.Name + "\n")
	for y := rows - 1; y >= 0; y-- { // north up
		sb.Write(grid[y])
		sb.WriteByte('\n')
	}
	return sb.String()
}
