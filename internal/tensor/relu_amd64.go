//go:build amd64

package tensor

// The AVX bodies of reluRow and reluGradRow. Bit-identity with the scalar
// branches is an instruction-semantics argument rather than a rounding one:
//
//   - reluPtrAVX computes dst[i] = MAXPS(src[i], +0). MAXPS returns its
//     second operand when the inputs compare equal (so -0 becomes +0, like
//     the scalar `else dst[i] = 0` branch) and when either input is NaN (so
//     NaN becomes +0, exactly what `v > 0` being false produces).
//   - reluGradPtrAVX computes dst[i] = grad[i] AND (ref[i] > 0). The ordered
//     greater-than compare is false for NaN refs, and the bitwise AND either
//     preserves every gradient bit or yields +0 — the two outcomes of the
//     scalar mask branch.

//go:noescape
func reluPtrAVX(dst, src *float32, n int)

//go:noescape
func reluGradPtrAVX(dst, grad, ref *float32, n int)
