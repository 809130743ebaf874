package scen

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"strings"
	"testing"

	"dronerl/internal/core"
	"dronerl/internal/nn"
)

// testLadder is a tiny two-stage ladder with thresholds at zero, so every
// stage promotes on its first attempt.
func testLadder() []Stage {
	return []Stage{
		{Name: "easy", Spec: GenSpec{Kind: Indoor, Corridor: 1.3, Density: 2}},
		{Name: "hard", Spec: GenSpec{Kind: Indoor, Corridor: 0.8, Density: 5}},
	}
}

func runCurriculum(t *testing.T, stages []Stage, opts ...core.RunOption) *Curriculum {
	t.Helper()
	c, err := NewCurriculum(stages, nn.L3, 7, 60, 60)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Run(context.Background(), c, opts...); err != nil {
		t.Fatal(err)
	}
	return c
}

// curriculumHash is the SHA-256 of a curriculum report: every promotion
// record in order, the outcome and the meta-training reward.
func curriculumHash(rep *CurriculumReport) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, rec := range rep.Trace {
		h.Write([]byte(rec.Stage + "|"))
		put(uint64(rec.Attempt))
		put(uint64(rec.Iters))
		put(math.Float64bits(rec.Reward))
		put(math.Float64bits(rec.SFD))
		if rec.Promoted {
			put(1)
		} else {
			put(0)
		}
	}
	h.Write([]byte(rep.FailedStage + "|"))
	put(math.Float64bits(rep.MetaReward))
	return hex.EncodeToString(h.Sum(nil))
}

func TestCurriculumPromotionTraceDeterministic(t *testing.T) {
	a := runCurriculum(t, testLadder())
	b := runCurriculum(t, testLadder())
	if a.Report() == nil || b.Report() == nil {
		t.Fatal("curriculum finished without a report")
	}
	if !reflect.DeepEqual(a.Report().Trace, b.Report().Trace) {
		t.Fatalf("promotion trace not reproducible with a fixed seed:\n%+v\nvs\n%+v",
			a.Report().Trace, b.Report().Trace)
	}
	if !a.Report().Completed {
		t.Fatalf("zero thresholds must promote every stage: %+v", a.Report())
	}
	if got := len(a.Report().Trace); got != 2 {
		t.Fatalf("want one promoting attempt per stage, got %d records", got)
	}
	for i, rec := range a.Report().Trace {
		if !rec.Promoted {
			t.Errorf("record %d (%s) not promoted despite zero thresholds", i, rec.Stage)
		}
		if rec.Iters != 60 || rec.Attempt != 0 {
			t.Errorf("record %d = %+v, want attempt 0 at 60 iters", i, rec)
		}
	}
	// The trace is pinned, captured at 942758f before the transfer recipe
	// moved into internal/transfer.
	const want = "8bf14c849495145851b1eaa4969a55616c53d91f37201316ab244eda8779b421"
	if got := curriculumHash(a.Report()); got != want {
		t.Fatalf("curriculum moved: report hash %s, want %s\n%+v", got, want, a.Report())
	}
}

func TestCurriculumFailureStopsTheLadder(t *testing.T) {
	stages := testLadder()
	// An unreachable reward threshold (rewards are normalized depths in
	// [0, 1]) fails stage one after its attempts.
	stages[0].PromoteReward = 10
	stages[0].MaxAttempts = 2
	c := runCurriculum(t, stages)
	rep := c.Report()
	if rep.Completed {
		t.Fatal("curriculum reported success past an unreachable threshold")
	}
	if rep.FailedStage != "easy" {
		t.Fatalf("FailedStage = %q, want %q", rep.FailedStage, "easy")
	}
	if len(rep.Trace) != 2 {
		t.Fatalf("want exactly the failed stage's 2 attempts in the trace, got %+v", rep.Trace)
	}
	for _, rec := range rep.Trace {
		if rec.Stage != "easy" || rec.Promoted {
			t.Errorf("unexpected trace record %+v", rec)
		}
	}
}

func TestCurriculumEmitsStageEvents(t *testing.T) {
	var events []core.Event
	runCurriculum(t, testLadder(), core.WithProgress(func(ev core.Event) {
		events = append(events, ev)
	}))
	phases := map[string]int{}
	for _, ev := range events {
		phases[ev.Phase]++
		if ev.Experiment != "curriculum" {
			t.Errorf("event experiment = %q, want curriculum", ev.Experiment)
		}
	}
	for _, want := range []string{"meta-train", "stage:easy", "stage:hard"} {
		if phases[want] == 0 {
			t.Errorf("no event for phase %q (got %v)", want, phases)
		}
	}
}

func TestCurriculumCancellation(t *testing.T) {
	c, err := NewCurriculum(testLadder(), nn.L3, 7, 60, 60)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := core.Run(ctx, c); err != context.Canceled {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if c.Report() != nil {
		t.Fatal("cancelled curriculum produced a report")
	}
}

func TestNewCurriculumValidates(t *testing.T) {
	if _, err := NewCurriculum(nil, nn.L3, 1, 100, 100); err == nil {
		t.Error("empty ladder accepted")
	}
	if _, err := NewCurriculum([]Stage{{Spec: GenSpec{Kind: "nope"}}}, nn.L3, 1, 100, 100); err == nil {
		t.Error("invalid stage spec accepted")
	}
	if _, err := NewCurriculum(testLadder(), nn.L3, 1, 0, 100); err == nil {
		t.Error("zero meta budget accepted")
	}
	c, err := NewCurriculum([]Stage{{Spec: GenSpec{Kind: Indoor}}}, nn.L3, 1, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stages()[0]
	if st.Name != "stage-0" || st.Iters != 100 || st.MaxAttempts != 2 {
		t.Errorf("stage defaults not applied: %+v", st)
	}
}

func TestDefaultLadderValidatesAndHardens(t *testing.T) {
	for _, kind := range []string{Indoor, Outdoor} {
		ladder := DefaultLadder(kind)
		if len(ladder) < 2 {
			t.Fatalf("%s ladder too short: %d stages", kind, len(ladder))
		}
		prev := 0.0
		for i, st := range ladder {
			v, err := st.Spec.normalized()
			if err != nil {
				t.Fatalf("%s ladder stage %d invalid: %v", kind, i, err)
			}
			if v.Kind != kind {
				t.Errorf("%s ladder stage %d has kind %q", kind, i, v.Kind)
			}
			if i > 0 && v.Corridor >= prev {
				t.Errorf("%s ladder stage %d does not narrow the corridor (%g >= %g)",
					kind, i, v.Corridor, prev)
			}
			prev = v.Corridor
			if st.Name == "" || strings.ContainsRune(st.Name, ' ') {
				t.Errorf("%s ladder stage %d has unusable name %q", kind, i, st.Name)
			}
		}
	}
}
