//go:build !amd64

package tensor

func dot16(a, b []int16) int32 { return dot16Scalar(a, b) }

func conv16Row(c *Conv16, dst []int32, x []int16, ow, rowLen, plane int) {
	conv16RowGo(c, dst, x, ow, rowLen, plane)
}

func planes16Vec(_, _ []int16, _, _ int) int { return 0 }

func narrow64Vec([]int16, []int32, []int16, uint, uint, int16) int { return 0 }

func axpyPanel16Vec([]int64, []int16, int, []int16, []int) int { return 0 }
