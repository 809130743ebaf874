package nn

import (
	"math"
	"math/rand"
	"testing"

	"dronerl/internal/tensor"
)

// Scalar references for the layers that have no GEMM to compare against a
// naive loop (conv_gemm_test.go) or a dot product (dense_cache_test.go):
// plain per-element loops written from the layer's definition, compared bit
// for bit, forward and backward, at batch 1, 3 and 32.

var refBatches = []int{1, 3, 32}

func equalBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, reference has %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %v, scalar reference %v", what, i, got[i], want[i])
		}
	}
}

// TestReLUMatchesScalarReference: out = v > 0 ? v : 0 (so NaN and -0 give
// +0) and dIn = in > 0 ? g : 0.
func TestReLUMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, b := range refBatches {
		r := NewReLU("relu")
		in := tensor.New(b, 3, 5, 7)
		in.RandN(rng, 1)
		id := in.Data()
		id[0], id[1], id[2] = 0, float32(math.Copysign(0, -1)), float32(math.NaN())
		grad := tensor.New(in.Shape()...)
		grad.RandN(rng, 1)

		wantOut, wantDin := make([]float32, len(id)), make([]float32, len(id))
		for i, v := range id {
			if v > 0 {
				wantOut[i], wantDin[i] = v, grad.Data()[i]
			}
		}
		equalBits(t, "ReLU out", r.ForwardBatch(in).Data(), wantOut)
		equalBits(t, "ReLU dIn", r.BackwardBatch(grad, true).Data(), wantDin)
	}
}

// TestMaxPoolMatchesScalarReference: each output is the window's maximum, the
// first one in row-major window order on ties, and its gradient flows back to
// that one input (overlapping windows add up in output order).
func TestMaxPoolMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for _, b := range refBatches {
		for _, geo := range []struct{ k, stride int }{{3, 2}, {2, 2}} {
			const c, h, w = 3, 9, 8
			m := NewMaxPool("pool", geo.k, geo.stride)
			in := tensor.New(b, c, h, w)
			in.RandN(rng, 1)
			// Ties inside windows: quantize a third of the values.
			for i := 0; i < in.Len(); i += 3 {
				in.Data()[i] = float32(math.Round(float64(in.Data()[i])))
			}
			oh, ow := (h-geo.k)/geo.stride+1, (w-geo.k)/geo.stride+1
			grad := tensor.New(b, c, oh, ow)
			grad.RandN(rng, 1)

			wantOut := make([]float32, grad.Len())
			wantDin := make([]float32, in.Len())
			o := 0
			for s := 0; s < b; s++ {
				for ch := 0; ch < c; ch++ {
					for oy := 0; oy < oh; oy++ {
						for ox := 0; ox < ow; ox++ {
							best := -1
							for ky := 0; ky < geo.k; ky++ {
								for kx := 0; kx < geo.k; kx++ {
									idx := ((s*c+ch)*h+oy*geo.stride+ky)*w + ox*geo.stride + kx
									if best < 0 || in.Data()[idx] > in.Data()[best] {
										best = idx
									}
								}
							}
							wantOut[o] = in.Data()[best]
							wantDin[best] += grad.Data()[o]
							o++
						}
					}
				}
			}
			equalBits(t, "MaxPool out", m.ForwardBatch(in).Data(), wantOut)
			equalBits(t, "MaxPool dIn", m.BackwardBatch(grad, true).Data(), wantDin)
		}
	}
}

// TestLRNMatchesScalarReference: b[i] = a[i] * d[i]^-beta with
// d[i] = K + alpha/N * sum_{j in win(i)} a[j]^2 in float64, and
// dIn[j] = g[j] d[j]^-beta - 2 alpha beta / N * a[j] * sum_{i: j in win(i)}
// g[i] a[i] d[i]^-(beta+1), windows ascending in channel.
func TestLRNMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, b := range refBatches {
		const c, h, w = 7, 3, 4
		l := NewLRN("norm")
		in := tensor.New(b, c, h, w)
		in.RandN(rng, 2)
		grad := tensor.New(in.Shape()...)
		grad.RandN(rng, 1)
		at := func(d []float32, s, ch, p int) float64 { return float64(d[(s*c+ch)*h*w+p]) }
		win := func(ch int) (int, int) { return max(ch-l.N/2, 0), min(ch+l.N/2, c-1) }

		wantOut, wantDin := make([]float32, in.Len()), make([]float32, in.Len())
		for s := 0; s < b; s++ {
			for p := 0; p < h*w; p++ {
				denom := make([]float64, c)
				for ch := 0; ch < c; ch++ {
					lo, hi := win(ch)
					var ss float64
					for j := lo; j <= hi; j++ {
						ss += at(in.Data(), s, j, p) * at(in.Data(), s, j, p)
					}
					denom[ch] = l.K + l.Alpha/float64(l.N)*ss
					wantOut[(s*c+ch)*h*w+p] = in.Data()[(s*c+ch)*h*w+p] * float32(math.Pow(denom[ch], -l.Beta))
				}
				for j := 0; j < c; j++ {
					lo, hi := win(j)
					var cross float64
					for i := lo; i <= hi; i++ {
						cross += at(grad.Data(), s, i, p) * at(in.Data(), s, i, p) * math.Pow(denom[i], -(l.Beta+1))
					}
					direct := at(grad.Data(), s, j, p) * math.Pow(denom[j], -l.Beta)
					wantDin[(s*c+j)*h*w+p] = float32(direct - 2*l.Alpha*l.Beta/float64(l.N)*at(in.Data(), s, j, p)*cross)
				}
			}
		}
		equalBits(t, "LRN out", l.ForwardBatch(in).Data(), wantOut)
		equalBits(t, "LRN dIn", l.BackwardBatch(grad, true).Data(), wantDin)
	}
}

// TestDenseBackwardMatchesScalarReference: dW[o][i] and db[o] take the
// samples in order onto one accumulator each, dX[s][i] sums over outputs in
// ascending order.
func TestDenseBackwardMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for _, b := range refBatches {
		d := NewDense("FC", 53, 19)
		d.Init(rng)
		x := tensor.New(b, d.In)
		x.RandN(rng, 1)
		grad := tensor.New(b, d.Out)
		grad.RandN(rng, 1)
		for i := 0; i < grad.Len(); i += 4 {
			grad.Data()[i] = 0
		}
		wantDW, wantDB := make([]float32, d.Out*d.In), make([]float32, d.Out)
		wantDX := make([]float32, b*d.In)
		for s := 0; s < b; s++ {
			for o := 0; o < d.Out; o++ {
				g := grad.Data()[s*d.Out+o]
				wantDB[o] += g
				for i := 0; i < d.In; i++ {
					wantDW[o*d.In+i] += g * x.Data()[s*d.In+i]
					wantDX[s*d.In+i] += g * d.Weight.W.Data()[o*d.In+i]
				}
			}
		}
		d.ForwardBatch(x)
		equalBits(t, "Dense dX", d.BackwardBatch(grad, true).Data(), wantDX)
		equalBits(t, "Dense dW", d.Weight.G.Data(), wantDW)
		equalBits(t, "Dense db", d.Bias.G.Data(), wantDB)
	}
}
