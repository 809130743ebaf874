package nn

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func snapshotNet(t *testing.T, seed int64) *Network {
	t.Helper()
	n := NavNetSpec().Build()
	n.Init(rand.New(rand.NewSource(seed)))
	return n
}

// TestSnapshotGobRoundTrip pins the Deploy error path's happy case: an
// Encode/ReadSnapshot round trip restores every weight bit for bit.
func TestSnapshotGobRoundTrip(t *testing.T) {
	src := snapshotNet(t, 3)
	snap := TakeSnapshot(src, "NavNet")
	if snap.Version != SnapshotVersion {
		t.Fatalf("fresh snapshot version %d, want %d", snap.Version, SnapshotVersion)
	}

	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Arch != "NavNet" || got.Version != SnapshotVersion {
		t.Errorf("metadata lost in transit: %q v%d", got.Arch, got.Version)
	}

	dst := snapshotNet(t, 99) // different weights before restore
	if err := got.Restore(dst); err != nil {
		t.Fatal(err)
	}
	sp, dp := src.Params(), dst.Params()
	for i := range sp {
		sd, dd := sp[i].W.Data(), dp[i].W.Data()
		for j := range sd {
			if sd[j] != dd[j] {
				t.Fatalf("param %s diverges at %d after round trip: %v vs %v",
					sp[i].Name, j, sd[j], dd[j])
			}
		}
	}
}

// TestReadSnapshotRejectsWrongVersion asserts the versioning contract: a
// snapshot from another layout version — including a pre-versioning file,
// which decodes as version 0 — fails loudly instead of restoring garbage.
func TestReadSnapshotRejectsWrongVersion(t *testing.T) {
	snap := TakeSnapshot(snapshotNet(t, 4), "NavNet")

	for _, v := range []int{0, SnapshotVersion + 1} {
		bad := *snap
		bad.Version = v
		// Encode guards against writing a foreign version in the first
		// place...
		if err := bad.Encode(io.Discard); err == nil {
			t.Errorf("Encode accepted version %d", v)
		}
		// ...and ReadSnapshot rejects a stream that carries one (written
		// here with raw gob, simulating a file from another build).
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&bad); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSnapshot(&buf); err == nil {
			t.Errorf("ReadSnapshot accepted version %d", v)
		} else if !strings.Contains(err.Error(), "version") {
			t.Errorf("version error should mention versions: %v", err)
		}
	}
}

// TestReadSnapshotTruncated asserts that a stream cut mid-message — the
// shape of a dropped connection or a partially written file — surfaces the
// retryable ErrSnapshotTruncated sentinel via errors.Is, at every cut point
// class: empty stream, mid-header, and mid-payload. A corrupt-but-complete
// stream must NOT match the sentinel, so transport-retry loops never chew
// on a poisoned artifact.
func TestReadSnapshotTruncated(t *testing.T) {
	snap := TakeSnapshot(snapshotNet(t, 7), "NavNet")
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()

	for _, cut := range []int{0, 3, len(whole) / 2, len(whole) - 1} {
		_, err := ReadSnapshot(bytes.NewReader(whole[:cut]))
		if err == nil {
			t.Fatalf("ReadSnapshot accepted a stream cut at %d/%d bytes", cut, len(whole))
		}
		if !errors.Is(err, ErrSnapshotTruncated) {
			t.Errorf("cut at %d: err = %v, want errors.Is(err, ErrSnapshotTruncated)", cut, err)
		}
	}

	// A complete stream of the wrong shape: corrupt, not truncated.
	var wrong bytes.Buffer
	if err := gob.NewEncoder(&wrong).Encode("not a snapshot"); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(&wrong); err == nil {
		t.Error("ReadSnapshot accepted a foreign gob stream")
	} else if errors.Is(err, ErrSnapshotTruncated) {
		t.Errorf("corrupt-but-complete stream misreported as truncated: %v", err)
	}

	// The sentinel survives a full round trip: an uncut stream still reads.
	if _, err := ReadSnapshot(bytes.NewReader(whole)); err != nil {
		t.Fatalf("uncut stream failed to read: %v", err)
	}
}

// TestRestoreRejectsArchMismatch asserts a snapshot whose parameter list
// diverges from the target network errors instead of partially restoring.
func TestRestoreRejectsArchMismatch(t *testing.T) {
	snap := TakeSnapshot(snapshotNet(t, 5), "NavNet")
	n := snapshotNet(t, 6)

	trunc := *snap
	trunc.Names = trunc.Names[:len(trunc.Names)-1]
	trunc.Data = trunc.Data[:len(trunc.Data)-1]
	if err := trunc.Restore(n); err == nil {
		t.Error("param-count mismatch must fail")
	}

	renamed := *snap
	renamed.Names = append([]string(nil), snap.Names...)
	renamed.Names[0] = "CONV1-renamed"
	if err := renamed.Restore(n); err == nil {
		t.Error("param-name mismatch must fail")
	}

	resized := *snap
	resized.Data = append([][]float32(nil), snap.Data...)
	resized.Data[0] = resized.Data[0][:len(resized.Data[0])-1]
	if err := resized.Restore(n); err == nil {
		t.Error("param-size mismatch must fail")
	}
}

// TestRestoreRejectsNonFinite: a NaN or ±Inf anywhere in the snapshot draws
// ErrSnapshotNonFinite and nothing is installed — the bad value sits in the
// last parameter, after everything a write-as-you-go restore would have
// replaced.
func TestRestoreRejectsNonFinite(t *testing.T) {
	n := snapshotNet(t, 7)
	before := TakeSnapshot(n, "NavNet")
	for _, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		bad := TakeSnapshot(snapshotNet(t, 8), "NavNet")
		last := bad.Data[len(bad.Data)-1]
		last[len(last)-1] = v
		if err := bad.Restore(n); !errors.Is(err, ErrSnapshotNonFinite) {
			t.Errorf("restoring %v: error %v, want ErrSnapshotNonFinite", v, err)
		}
		for i, p := range n.Params() {
			if !slices.Equal(p.W.Data(), before.Data[i]) {
				t.Fatalf("restoring %v: rejected snapshot overwrote %s", v, p.Name)
			}
		}
	}
}
