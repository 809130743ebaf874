package tensor

import "fmt"

// The float convolution's forward pass is an implicit GEMM: no im2col
// panel. Each sample is copied once into zero-padded planes split by stride
// phase — for stride s, plane (ch, py, px) holds the padded input's rows py,
// py+s, … and columns px, px+s, … — so on a grid as wide as a plane (wq)
// each tap (ch, ky, kx) reads one contiguous run of the planes. panelRowsVec,
// the panel body of every dense GEMM, reads those runs through a tap-offset
// table in place of p·n; the bias scatter drops each grid row's columns past
// ow. Per output element the products arrive in ascending (ch, ky, kx) order
// through one accumulator, padding taps add w·(+0), gemmBlockK panel splits
// store and reload exactly, and the bias comes last: the im2col-panel GEMM's
// schedule, so its bits (TestConvForwardMatchesNaive).

// ConvScratch is ConvInto's workspace: the planes, the grid sums and the
// tap-offset table, rebuilt only when the geometry changes. The zero value
// is ready; it is not safe for concurrent use.
type ConvScratch struct {
	arena Arena
	key   [7]int // c, h, w, kh, kw, stride, pad that the fields below serve
	offs  []int  // offs[(ch·kh+ky)·kw+kx]: the tap's run within a sample's planes
	// A plane is hq×wq and a sample's planes plen long. A grid of n has an
	// output row per wq, rounded up to whole 8-wide vector blocks; the
	// planes' slack keeps those last reads inside the sample.
	hq, wq, plen, n int
	planes, grid    []float32 // this pass's (B, plen) and (B, outC, n)
}

// ConvInto writes out (B, outC, oh, ow) = weight (outC, c·kh·kw) ⊛ in
// (B, c, h, w) + bias (outC), the convolution with the given kernel, stride
// and zero padding, staging through ws. Batches above parallelFlops fan out
// over samples.
func ConvInto(out, in, weight, bias *Tensor, kh, kw, stride, pad int, ws *ConvScratch) {
	if in.Rank() != 4 || weight.Rank() != 2 || out.Rank() != 4 {
		panic("tensor: ConvInto requires NCHW input and output and a rank-2 weight")
	}
	b, c, h, w := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	oh, ow := ConvOutDim(h, kh, stride, pad), ConvOutDim(w, kw, stride, pad)
	outC, k := weight.Dim(0), weight.Dim(1)
	if k != c*kh*kw || bias.Len() != outC || oh <= 0 || ow <= 0 ||
		out.Dim(0) != b || out.Dim(1) != outC || out.Dim(2) != oh || out.Dim(3) != ow {
		panic(fmt.Sprintf("tensor: ConvInto shape mismatch %v = %v ⊛ %v (kernel %dx%d stride %d pad %d)",
			out.shape, weight.shape, in.shape, kh, kw, stride, pad))
	}
	if key := [7]int{c, h, w, kh, kw, stride, pad}; key != ws.key {
		ws.key = key
		ws.hq, ws.wq = (h+2*pad+stride-1)/stride, (w+2*pad+stride-1)/stride
		raw := (oh-1)*ws.wq + ow
		ws.n = (raw + 7) &^ 7
		ws.plen = c*stride*stride*ws.hq*ws.wq + ws.n - raw
		ws.offs = ws.offs[:0]
		for ch := 0; ch < c; ch++ {
			for ky := 0; ky < kh; ky++ {
				for kx := 0; kx < kw; kx++ {
					plane := (ch*stride+ky%stride)*stride + kx%stride
					ws.offs = append(ws.offs, plane*ws.hq*ws.wq+ky/stride*ws.wq+kx/stride)
				}
			}
		}
	}
	ws.planes = ws.arena.Get(0, b, ws.plen).data
	ws.grid = ws.arena.Get(1, b, outC, ws.n).data
	if serialRows(b, b*outC*k*ws.n) {
		ws.samples(out, in, weight, bias, 0, b)
	} else {
		parallelRows(b, func(lo, hi int) { ws.samples(out, in, weight, bias, lo, hi) })
	}
}

// samples runs ConvInto for samples [lo, hi): stage, multiply, scatter.
func (ws *ConvScratch) samples(out, in, weight, bias *Tensor, lo, hi int) {
	c, h, w, stride, pad := ws.key[0], ws.key[1], ws.key[2], ws.key[5], ws.key[6]
	outC, k, oh, ow := out.Dim(1), weight.Dim(1), out.Dim(2), out.Dim(3)
	n, wq := ws.n, ws.wq
	for s := lo; s < hi; s++ {
		x := ws.planes[s*ws.plen : (s+1)*ws.plen]
		phasePlanes(x, in.data[s*c*h*w:(s+1)*c*h*w], c, h, w, stride, pad, ws.hq, wq)
		g := ws.grid[s*outC*n : (s+1)*outC*n]
		clear(g)
		for p0 := 0; p0 < k; p0 += gemmBlockK {
			panelRowsVec(g, weight.data[p0:], k, 1, x, ws.offs[p0:min(p0+gemmBlockK, k)], n, outC)
		}
		for oc := 0; oc < outC; oc++ {
			dst := out.data[(s*outC+oc)*oh*ow : (s*outC+oc+1)*oh*ow]
			sums := g[oc*n : (oc+1)*n]
			bv := bias.data[oc]
			for oy := 0; oy < oh; oy++ {
				src := sums[oy*wq : oy*wq+ow]
				d := dst[oy*ow:][:len(src)]
				for i, v := range src {
					d[i] = v + bv
				}
			}
		}
	}
}

// phasePlanes writes one CHW sample into dst as c·s² stride-phase planes of
// hq×wq: plane (ch, py, px) row i column j is the zero-padded input at
// (i·s+py-pad, j·s+px-pad), zero outside the input. Every element of dst is
// written, the slack past the planes included.
func phasePlanes(dst, src []float32, c, h, w, s, pad, hq, wq int) {
	clear(dst)
	// first returns the first input index of phase p in a padded axis and
	// its index within the phase: input i is padded i+pad = (i+pad)/s·s + p.
	first := func(p int) (i0, at int) {
		i0 = ((p-pad)%s + s) % s
		return i0, (i0 + pad) / s
	}
	for py := 0; py < s; py++ {
		y0, row0 := first(py)
		for px := 0; px < s; px++ {
			x0, col0 := first(px)
			if x0 >= w {
				continue
			}
			cnt := (w - x0 + s - 1) / s
			for ch := 0; ch < c; ch++ {
				at := ((ch*s+py)*s+px)*hq*wq + row0*wq + col0
				for y := y0; y < h; y, at = y+s, at+wq {
					row, in := dst[at:at+cnt], src[(ch*h+y)*w+x0:]
					if s == 1 {
						copy(row, in)
						continue
					}
					for j := range row {
						row[j] = in[j*s]
					}
				}
			}
		}
	}
}
