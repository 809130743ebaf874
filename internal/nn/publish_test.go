package nn

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
)

func buildTestNets(t *testing.T, cfg Config) (*Network, *Network) {
	t.Helper()
	spec := NavNetSpec()
	pub := spec.Build()
	pub.Init(rand.New(rand.NewSource(1)))
	pub.SetConfig(cfg)
	sub := spec.Build()
	sub.Init(rand.New(rand.NewSource(2)))
	sub.SetConfig(cfg)
	return pub, sub
}

// TestPolicyBoardPublishAdopt: a published policy lands in the subscriber's
// trainable parameters exactly, versions gate re-adoption, and frozen layers
// are untouched.
func TestPolicyBoardPublishAdopt(t *testing.T) {
	pub, sub := buildTestNets(t, L3)
	frozenBefore := append([]float32(nil), sub.Params()[0].W.Data()...)

	b := NewPolicyBoard()
	if b.Version() != 0 {
		t.Fatal("fresh board has a version")
	}
	if _, changed, err := b.Adopt(sub, 0); err != nil || changed {
		t.Fatal("adopting from an empty board must be a no-op")
	}
	v := b.Publish(pub, "NavNet")
	if v != 1 || b.Version() != 1 {
		t.Fatalf("first publish has version %d", v)
	}
	got, changed, err := b.Adopt(sub, 0)
	if err != nil || !changed || got != 1 {
		t.Fatalf("adopt = (%d, %v, %v)", got, changed, err)
	}
	pp, sp := pub.TrainableParams(), sub.TrainableParams()
	for i := range pp {
		if !pp[i].W.Equal(sp[i].W) {
			t.Errorf("trainable param %s not adopted", pp[i].Name)
		}
	}
	for i, x := range sub.Params()[0].W.Data() {
		if x != frozenBefore[i] {
			t.Fatal("adoption touched a frozen parameter")
		}
	}
	// Same version again: no copy.
	if _, changed, _ := b.Adopt(sub, got); changed {
		t.Error("re-adopting the same version must be a no-op")
	}
	// A second publish bumps the version and swaps buffers.
	pub.TrainableParams()[0].W.Data()[0] += 1
	pub.TrainableParams()[0].MarkChanged()
	if v := b.Publish(pub, "NavNet"); v != 2 {
		t.Fatalf("second publish has version %d", v)
	}
	if got, changed, _ := b.Adopt(sub, 1); !changed || got != 2 {
		t.Fatalf("adopt after second publish = (%d, %v)", got, changed)
	}
	if sub.TrainableParams()[0].W.Data()[0] != pub.TrainableParams()[0].W.Data()[0] {
		t.Error("second publish not adopted")
	}
}

// TestPolicyBoardMismatch: adopting into a network with a different
// trainable topology fails loudly instead of corrupting weights.
func TestPolicyBoardMismatch(t *testing.T) {
	pub, _ := buildTestNets(t, L3)
	_, sub := buildTestNets(t, L2)
	b := NewPolicyBoard()
	b.Publish(pub, "NavNet")
	if _, _, err := b.Adopt(sub, 0); err == nil {
		t.Fatal("adopting an L3 policy into an L2 network must fail")
	}
}

// TestPolicyBoardConcurrent hammers the board from one publisher and several
// adopters; under -race this exercises the double-buffered seqlock path. The
// invariant: every adopted weight set is one published set, never a torn mix
// — checked by publishing constant-valued snapshots and verifying each
// adopted set is constant.
func TestPolicyBoardConcurrent(t *testing.T) {
	pub, _ := buildTestNets(t, L3)
	b := NewPolicyBoard()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			for _, p := range pub.TrainableParams() {
				d := p.W.Data()
				for i := range d {
					d[i] = float32(round)
				}
				p.MarkChanged()
			}
			b.Publish(pub, "NavNet")
		}
	}()
	var adopters sync.WaitGroup
	for w := 0; w < 4; w++ {
		adopters.Add(1)
		go func(w int) {
			defer adopters.Done()
			_, sub := buildTestNets(t, L3)
			var last uint64
			for k := 0; k < 200; k++ {
				v, changed, err := b.Adopt(sub, last)
				if err != nil {
					t.Error(err)
					return
				}
				last = v
				if !changed {
					continue
				}
				var val float32
				first := true
				for _, p := range sub.TrainableParams() {
					for _, x := range p.W.Data() {
						if first {
							val, first = x, false
						} else if x != val {
							t.Error("adopted a torn policy (mixed publish rounds)")
							return
						}
					}
				}
			}
		}(w)
	}
	adopters.Wait()
	close(stop)
	wg.Wait()
}

// TestPolicyBoardConcurrentPublishers hammers one board from SEVERAL
// publishers at once — the shape of the distributed learner's publish path
// racing a serving daemon's hot reload. Each publisher stamps every
// trainable weight with its own tag (publisher*1000 + round), so a torn
// publish or torn adoption shows up as mixed tags. Invariants: adopted
// versions move strictly forward per adopter, every adopted weight set
// carries exactly one tag, and the version counter ends at exactly the
// number of publishes issued.
func TestPolicyBoardConcurrentPublishers(t *testing.T) {
	const (
		publishers       = 4
		roundsPerPublish = 50
	)
	b := NewPolicyBoard()
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			pub, _ := buildTestNets(t, L3)
			for round := 0; round < roundsPerPublish; round++ {
				tag := float32(1000*(p+1) + round)
				for _, param := range pub.TrainableParams() {
					d := param.W.Data()
					for i := range d {
						d[i] = tag
					}
					param.MarkChanged()
				}
				b.Publish(pub, "NavNet")
			}
		}(p)
	}

	var adopters sync.WaitGroup
	for w := 0; w < 4; w++ {
		adopters.Add(1)
		go func() {
			defer adopters.Done()
			_, sub := buildTestNets(t, L3)
			var last uint64
			for k := 0; k < 200; k++ {
				v, changed, err := b.Adopt(sub, last)
				if err != nil {
					t.Error(err)
					return
				}
				if v < last {
					t.Errorf("version moved backwards: %d after %d", v, last)
					return
				}
				last = v
				if !changed {
					continue
				}
				var tag float32
				first := true
				for _, param := range sub.TrainableParams() {
					for _, x := range param.W.Data() {
						if first {
							tag, first = x, false
						} else if x != tag {
							t.Error("adopted a policy with mixed publisher tags (torn publish)")
							return
						}
					}
				}
			}
		}()
	}
	adopters.Wait()
	wg.Wait()

	if got, want := b.Version(), uint64(publishers*roundsPerPublish); got != want {
		t.Errorf("board version %d after %d publishes", got, want)
	}
}

// TestAdoptRejectsNonFinite: a published policy with a NaN in its last
// trainable parameter — the one a check-while-copying install would reach
// last — is refused whole, and the adopter keeps every bit it flew before.
func TestAdoptRejectsNonFinite(t *testing.T) {
	pub, sub := buildTestNets(t, L3)
	ps := pub.TrainableParams()
	last := ps[len(ps)-1].W.Data()
	last[len(last)-1] = float32(math.NaN())
	b := NewPolicyBoard()
	b.Publish(pub, "NavNet")

	before := TakeSnapshot(sub, "NavNet")
	v, changed, err := b.Adopt(sub, 0)
	if !errors.Is(err, ErrSnapshotNonFinite) || changed || v != 0 {
		t.Fatalf("Adopt = (%d, %v, %v), want a refusal with ErrSnapshotNonFinite", v, changed, err)
	}
	for i, p := range sub.Params() {
		for j, w := range p.W.Data() {
			if math.Float32bits(w) != math.Float32bits(before.Data[i][j]) {
				t.Fatalf("a refused adoption wrote %s[%d]", p.Name, j)
			}
		}
	}
}
