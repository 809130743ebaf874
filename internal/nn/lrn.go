package nn

import (
	"math"

	"dronerl/internal/tensor"
)

// LRN is AlexNet's local response normalization across channels
// ("followed by ReLU, norm" in Fig. 3(a)):
//
//	b[i] = a[i] / (K + Alpha/N * sum_{j in window(i)} a[j]^2)^Beta
//
// where the window spans N channels centred on i. The default constants are
// AlexNet's (K=2, N=5, Alpha=1e-4, Beta=0.75).
type LRN struct {
	LayerName string
	N         int
	K         float64
	Alpha     float64
	Beta      float64

	// bIn and bOut are the latest ForwardBatch's input (read by
	// BackwardBatch, never by a later forward pass) and output; bDenom its
	// cached denominators.
	bArena    tensor.Arena
	bIn, bOut *tensor.Tensor
	bDenom    []float64
}

// NewLRN creates an LRN layer with AlexNet's constants.
func NewLRN(name string) *LRN {
	return &LRN{LayerName: name, N: 5, K: 2, Alpha: 1e-4, Beta: 0.75}
}

// Name implements Layer.
func (l *LRN) Name() string { return l.LayerName }

// Params implements Layer.
func (l *LRN) Params() []*Param { return nil }

// forwardSample normalizes one CHW sample: od and the denominator cache are
// filled from id.
func (l *LRN) forwardSample(id, od []float32, denoms []float64, c, hw int) {
	half := l.N / 2
	for p := 0; p < hw; p++ {
		for ch := 0; ch < c; ch++ {
			lo := max(ch-half, 0)
			hi := min(ch+half, c-1)
			var ss float64
			for j := lo; j <= hi; j++ {
				v := float64(id[j*hw+p])
				ss += float64(v * v) // rounded, so never fused
			}
			denom := l.K + float64(l.Alpha/float64(l.N)*ss)
			denoms[ch*hw+p] = denom
			od[ch*hw+p] = id[ch*hw+p] * float32(math.Pow(denom, -l.Beta))
		}
	}
}

// backwardSample computes one CHW sample's input gradient from the cached
// denominators.
func (l *LRN) backwardSample(id, gd, od []float32, denoms []float64, c, hw int) {
	half := l.N / 2
	scale := 2 * l.Alpha * l.Beta / float64(l.N)
	for p := 0; p < hw; p++ {
		// dIn[j] = g[j]*denom[j]^-beta
		//        - scale * a[j] * sum_{i: j in win(i)} g[i]*a[i]*denom[i]^-(beta+1)
		for j := 0; j < c; j++ {
			denomJ := denoms[j*hw+p]
			direct := float64(gd[j*hw+p]) * math.Pow(denomJ, -l.Beta)
			lo := max(j-half, 0)
			hi := min(j+half, c-1)
			var cross float64
			for i := lo; i <= hi; i++ {
				denomI := denoms[i*hw+p]
				cross += float64(float64(gd[i*hw+p]) * float64(id[i*hw+p]) * math.Pow(denomI, -(l.Beta+1)))
			}
			od[j*hw+p] = float32(float64(direct) - float64(scale*float64(id[j*hw+p])*cross)) // rounded, so never fused
		}
	}
}
