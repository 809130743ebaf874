package serve

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dronerl/internal/nn"
)

// TestHotReloadUnderLoad publishes a new policy while concurrent clients are
// in flight and checks the zero-downtime contract bit for bit: every reply
// must match a direct forward pass under the policy version it reports — old
// version, old weights; new version, new weights; never a torn mix — no
// request may fail, and the pool must converge on the new policy.
func TestHotReloadUnderLoad(t *testing.T) {
	snapA, refA := freshPolicy(t, 20)
	snapB, refB := freshPolicy(t, 21)

	s, err := New(Config{
		Snapshot: snapA, Workers: 2, MaxBatch: 8,
		BatchWindow: 200 * time.Microsecond, QueueDepth: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Start()

	type sample struct {
		obs []float32
		rep Reply
	}
	const (
		clients = 8
		perC    = 30
	)
	samples := make([][]sample, clients)
	errc := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + int64(c)))
			for i := 0; i < perC; i++ {
				obs := randObs(rng)
				rep, err := s.Infer(context.Background(), obs)
				if err != nil {
					errc <- err
					return
				}
				samples[c] = append(samples[c], sample{obs, rep})
			}
		}(c)
	}

	// Swap the policy mid-burst: wait for some traffic, then publish B.
	for {
		if st := s.Stats(); st.Served >= clients*perC/4 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	v, err := s.Reload(snapB)
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	if v != 2 {
		t.Fatalf("reload published version %d, want 2", v)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("request failed during reload: %v", err)
	}

	// Verify serially against the untouched reference networks.
	verified := map[uint64]int{}
	for c := range samples {
		for i, sm := range samples[c] {
			var ref *nn.Network
			switch sm.rep.PolicyVersion {
			case 1:
				ref = refA
			case 2:
				ref = refB
			default:
				t.Fatalf("client %d req %d: impossible policy version %d", c, i, sm.rep.PolicyVersion)
			}
			want := forwardQ(ref, sm.obs)
			for j, got := range sm.rep.Q {
				if got != want[j] {
					t.Fatalf("client %d req %d (version %d): Q[%d] = %v, want %v — torn or stale weights",
						c, i, sm.rep.PolicyVersion, j, got, want[j])
				}
			}
			verified[sm.rep.PolicyVersion]++
		}
	}
	if verified[1]+verified[2] != clients*perC {
		t.Fatalf("verified %v, want %d total", verified, clients*perC)
	}
	if verified[2] == 0 {
		t.Error("no request ever saw the reloaded policy")
	}

	// The pool converges: a fresh request answers under the new policy.
	rep, err := s.Infer(context.Background(), randObs(rand.New(rand.NewSource(22))))
	if err != nil {
		t.Fatal(err)
	}
	if rep.PolicyVersion != 2 {
		t.Errorf("post-reload request served version %d, want 2", rep.PolicyVersion)
	}
	if st := s.Stats(); st.Reloads != 1 || st.PolicyVersion != 2 || st.AdoptFailures != 0 {
		t.Errorf("stats after reload: reloads %d version %d adopt failures %d",
			st.Reloads, st.PolicyVersion, st.AdoptFailures)
	}
}

// TestReloadRejectsNonFinite: a snapshot holding NaN or ±Inf never reaches
// the serving policy, in process or over POST /v1/policy (400, not the 409 of
// a topology conflict). The bad value sits in the last parameter, so a
// restore that wrote as it went would already have replaced every earlier
// one: the version must stay put and replies must still be the old policy's,
// bit for bit.
func TestReloadRejectsNonFinite(t *testing.T) {
	snapA, refA := freshPolicy(t, 26)
	s, err := New(Config{Snapshot: snapA})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Start()

	for _, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		bad, _ := freshPolicy(t, 27)
		last := bad.Data[len(bad.Data)-1]
		last[len(last)-1] = v
		if _, err := s.Reload(bad); !errors.Is(err, nn.ErrSnapshotNonFinite) {
			t.Errorf("Reload with %v: error %v, want nn.ErrSnapshotNonFinite", v, err)
		}
		var body bytes.Buffer
		if err := bad.Encode(&body); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/policy", &body))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "non-finite") {
			t.Errorf("POST /v1/policy with %v: %d %s, want 400 naming the non-finite weight", v, rec.Code, rec.Body)
		}
	}

	if st := s.Stats(); st.PolicyVersion != 1 || st.Reloads != 0 {
		t.Errorf("rejected snapshots left version %d after %d reloads, want 1 and 0", st.PolicyVersion, st.Reloads)
	}
	obs := randObs(rand.New(rand.NewSource(28)))
	rep, err := s.Infer(context.Background(), obs)
	if err != nil {
		t.Fatal(err)
	}
	want := forwardQ(refA, obs)
	for i, got := range rep.Q {
		if got != want[i] {
			t.Fatalf("Q[%d] = %v, want %v: part of a rejected snapshot was installed", i, got, want[i])
		}
	}
	// The master copy is clean too: the next good reload publishes exactly
	// what it was given.
	snapB, refB := freshPolicy(t, 29)
	if _, err := s.Reload(snapB); err != nil {
		t.Fatal(err)
	}
	rep, err = s.Infer(context.Background(), obs)
	if err != nil {
		t.Fatal(err)
	}
	want = forwardQ(refB, obs)
	for i, got := range rep.Q {
		if rep.PolicyVersion != 2 || got != want[i] {
			t.Fatalf("after a good reload: version %d Q[%d] = %v, want version 2 and %v", rep.PolicyVersion, i, got, want[i])
		}
	}
}

// TestReloadValidation checks a bad snapshot can never replace a serving
// policy: wrong architecture and wrong parameter topology are both rejected
// and the version stays put.
func TestReloadValidation(t *testing.T) {
	snap, _ := freshPolicy(t, 23)
	s, err := New(Config{Snapshot: snap})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	wrongArch, _ := freshPolicy(t, 24)
	wrongArch.Arch = "ModifiedAlexNet"
	if _, err := s.Reload(wrongArch); err == nil || !strings.Contains(err.Error(), "ModifiedAlexNet") {
		t.Errorf("wrong-arch reload: error %v, want the offending architecture named", err)
	}

	// Same arch label, broken parameter topology.
	torn, _ := freshPolicy(t, 25)
	torn.Data[0] = torn.Data[0][:len(torn.Data[0])-1]
	if _, err := s.Reload(torn); err == nil || !strings.Contains(err.Error(), "values") {
		t.Errorf("truncated-param reload: error %v, want a size mismatch", err)
	}

	if v := s.PolicyVersion(); v != 1 {
		t.Errorf("rejected reloads moved the version to %d", v)
	}
}
