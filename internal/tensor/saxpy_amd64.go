//go:build amd64

package tensor

// saxpyPtrAVX is saxpyRow's AVX body: dst[i] += a*src[i] for i < n.
//
//go:noescape
func saxpyPtrAVX(dst, src *float32, n int, a float32)

func cpuHasAVXAsm() bool

// hasAVX reports AVX support by both the CPU and the OS (XGETBV). It only
// initialises useFloatAVX and useInt16AVX2.
var hasAVX = cpuHasAVXAsm()
