//go:build !amd64

package tensor

// useFloatAVX is false off amd64: every float kernel runs its portable twin,
// the same loop amd64 runs without AVX. A variable, as on amd64, so tests
// switch the same way on every arch.
var useFloatAVX = false

// The AVX kernels' stubs exist only so their callers compile everywhere;
// the guard above keeps them unreachable off amd64.
func saxpyPtrAVX(dst, src *float32, n int, a float32) {
	panic("tensor: saxpyPtrAVX without amd64")
}

func reluPtrAVX(dst, src *float32, n int) { panic("tensor: reluPtrAVX without amd64") }

func reluGradPtrAVX(dst, grad, ref *float32, n int) {
	panic("tensor: reluGradPtrAVX without amd64")
}

func axpyPanelAVX(dst, a, b *float32, offs *int, sa, k, n int) {
	panic("tensor: axpyPanelAVX without amd64")
}

func axpyPanel4AVX(dst, a, b *float32, rows, offs *int, aCol, k, n int) {
	panic("tensor: axpyPanel4AVX without amd64")
}

func transpose8AVX(dst *float32, ldd int, src *float32, lds int) {
	panic("tensor: transpose8AVX without amd64")
}

func maxAbsAVX(x *float32, n int) float32 { panic("tensor: maxAbsAVX without amd64") }

func scaleAVX(x *float32, n int, s float32) { panic("tensor: scaleAVX without amd64") }

func biasRowsAVX(dst, src *float32, rows, w, ld int, b float32) {
	panic("tensor: biasRowsAVX without amd64")
}
