package tensor

import (
	"math/rand"
	"testing"

	"dronerl/internal/allocs"
)

func TestArenaReusesStorage(t *testing.T) {
	var a Arena
	x := a.Get(0, 4, 8)
	if got := x.Shape(); got[0] != 4 || got[1] != 8 {
		t.Fatalf("shape = %v", got)
	}
	x.Fill(3)
	// Same slot, same shape: the exact same tensor, contents intact.
	y := a.Get(0, 4, 8)
	if y != x {
		t.Error("same-shape Get must return the identical tensor")
	}
	if y.At(2, 2) != 3 {
		t.Error("contents must survive a same-shape Get")
	}
	// Shrinking reuses the backing array.
	z := a.Get(0, 2, 8)
	if &z.Data()[0] != &x.Data()[0] {
		t.Error("smaller request must reuse the slot's storage")
	}
	// Independent slots are independent tensors.
	w := a.Get(1, 4, 8)
	if w == x {
		t.Error("distinct slots must not share a tensor")
	}
	// Growing reallocates and keeps working.
	g := a.Get(0, 100)
	if g.Len() != 100 {
		t.Errorf("grown slot len = %d", g.Len())
	}
}

func TestArenaGetSteadyStateAllocs(t *testing.T) {
	var a Arena
	a.Get(0, 16, 16) // warm-up
	if avg := allocs.PerRun(100, func() { a.Get(0, 16, 16) }); avg != 0 {
		t.Errorf("steady-state Get allocates %v times per call, want 0", avg)
	}
}

func TestArenaPanics(t *testing.T) {
	var a Arena
	for _, bad := range []func(){
		func() { a.Get(-1, 3) },
		func() { a.Get(0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			bad()
		}()
	}
}

// TestIm2ColIntoMatchesPerSample checks the batched expansion against B
// independent Im2Col calls, including reuse of a dirty workspace.
func TestIm2ColIntoMatchesPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const b, c, h, w, kh, kw, stride, pad = 3, 2, 7, 6, 3, 3, 2, 1
	in := New(b, c, h, w)
	in.RandN(rng, 1)
	oh := ConvOutDim(h, kh, stride, pad)
	ow := ConvOutDim(w, kw, stride, pad)
	np := oh * ow
	colw := c * kh * kw
	dst := New(b*np, colw)
	dst.Fill(99) // dirty: Into must overwrite every element, padding included
	Im2ColInto(dst, in, kh, kw, stride, pad)
	for s := 0; s < b; s++ {
		sample := FromSlice(in.Data()[s*c*h*w:(s+1)*c*h*w], c, h, w)
		want := Im2Col(sample, kh, kw, stride, pad)
		got := FromSlice(dst.Data()[s*np*colw:(s+1)*np*colw], np, colw)
		if !got.Equal(want) {
			t.Fatalf("sample %d: batched im2col diverges from per-sample Im2Col", s)
		}
	}
}
