package nn

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
)

// fixtureNet is the small seeded network behind testdata/snapshot_v*.
func fixtureNet() *Network {
	net := NewNetwork(NewDense("FC1", 4, 8), NewReLU("RELU1"), NewDense("FC2", 8, 2))
	net.Init(rand.New(rand.NewSource(30)))
	return net
}

func snapshotNet(t *testing.T, seed int64) *Network {
	t.Helper()
	n := NavNetSpec().Build()
	n.Init(rand.New(rand.NewSource(seed)))
	return n
}

// TestSnapshotGobRoundTrip pins the Deploy error path's happy case: an
// Encode/ReadSnapshot round trip of the weight image restores every weight
// bit for bit. (The name predates the image; the gob layout is gone.)
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

// TestReadSnapshotRejectsWrongVersion asserts the versioning contract: an
// image of another layout version — 0, the gob layout 1, or a future one —
// fails loudly instead of restoring garbage.
func TestReadSnapshotRejectsWrongVersion(t *testing.T) {
	snap := TakeSnapshot(snapshotNet(t, 4), "NavNet")
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{0, 1, SnapshotVersion + 1} {
		bad := *snap
		bad.Version = v
		// Encode guards against writing a foreign version in the first
		// place...
		if err := bad.Encode(io.Discard); err == nil {
			t.Errorf("Encode accepted version %d", v)
		}
		// ...and ReadSnapshot rejects an image that carries one.
		img := bytes.Clone(buf.Bytes())
		binary.LittleEndian.PutUint32(img[8:], uint32(v))
		if _, err := ReadSnapshot(bytes.NewReader(img)); err == nil {
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

	// A complete gob stream: no image at all, not truncated.
	var wrong bytes.Buffer
	if err := gob.NewEncoder(&wrong).Encode("not a snapshot"); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(&wrong); err == nil {
		t.Error("ReadSnapshot accepted a gob stream")
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

// TestSnapshotFormatPins: files written by earlier builds keep their
// meaning. testdata/snapshot_v1.gob is fixtureNet's gob snapshot (layout 1),
// written by the build before the weight image: it is refused with the
// advice to retake it, not mistaken for a truncated transfer. snapshot_v2.img
// is the same weights as the first weight image: it decodes to the pinned
// words and re-encodes to the same bytes, which are what this build writes
// for fixtureNet today.
func TestSnapshotFormatPins(t *testing.T) {
	v1, err := os.ReadFile("testdata/snapshot_v1.gob")
	if err != nil {
		t.Fatal(err)
	}
	_, err = ReadSnapshot(bytes.NewReader(v1))
	if err == nil || errors.Is(err, ErrSnapshotTruncated) || !strings.Contains(err.Error(), "retake the snapshot") {
		t.Fatalf("layout-1 gob snapshot: %v, want the retake refusal", err)
	}
	v2, err := os.ReadFile("testdata/snapshot_v2.img")
	if err != nil {
		t.Fatal(err)
	}
	s, err := ReadSnapshot(bytes.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for i, d := range s.Data {
		h.Write([]byte(s.Names[i]))
		for _, v := range d {
			h.Write(binary.LittleEndian.AppendUint32(nil, math.Float32bits(v)))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != "2deefae4d72833ecbea5129ca5aa5a196b51b467be8245627dc1277e5fc1b59c" {
		t.Errorf("snapshot_v2.img decodes to words hashing %s", got)
	}
	var again, today bytes.Buffer
	if err := s.Encode(&again); err != nil {
		t.Fatal(err)
	}
	if err := TakeSnapshot(fixtureNet(), "fixture").Encode(&today); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), v2) || !bytes.Equal(today.Bytes(), v2) {
		t.Error("re-encoding snapshot_v2.img, or encoding fixtureNet today, does not reproduce its bytes")
	}
}

// TestDecodeImageRefusesCorruption: a whole image that breaks its seal or its
// section table is ErrSnapshotCorrupt, never truncation and never a decode.
// The damaged copies of fixtureNet's image (FC1.weight is section 0, its
// table entry's offset field at byte 47) are resealed where the CRC would
// otherwise catch them first.
func TestDecodeImageRefusesCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := TakeSnapshot(fixtureNet(), "fixture").Encode(&buf); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	reseal := func(b []byte) []byte {
		end := len(b) - 4
		binary.LittleEndian.PutUint32(b[end:], crc32.Checksum(b[:end], castagnoli))
		return b
	}
	damaged := map[string][]byte{
		"flipped word bit":   func() []byte { b := bytes.Clone(whole); b[len(b)-5] ^= 1; return b }(),
		"trailing byte":      append(bytes.Clone(whole), 0),
		"moved section":      func() []byte { b := bytes.Clone(whole); b[47] += imageAlign; return reseal(b) }(),
		"word count lie":     func() []byte { b := bytes.Clone(whole); b[55]++; return reseal(b) }(),
		"dirty padding":      func() []byte { b := bytes.Clone(whole); b[127] = 1; return reseal(b) }(),
		"section count lie":  func() []byte { b := bytes.Clone(whole); b[12]++; return reseal(b) }(),
		"absurd total bytes": func() []byte { b := bytes.Clone(whole); b[23] = 0x7f; return b }(),
	}
	for name, b := range damaged {
		if s, err := DecodeImage(b); !errors.Is(err, ErrSnapshotCorrupt) || s != nil {
			t.Errorf("%s: DecodeImage = (%v, %v), want ErrSnapshotCorrupt", name, s != nil, err)
		}
	}
}

// TestCountsSectionRoundTrip: counts whose 32-bit halves are signalling and
// quiet NaN, ±Inf and subnormal patterns cross Encode and ReadSnapshot bit
// for bit, a missing or misshapen section is an error, and Restore refuses a
// snapshot that carries one.
func TestCountsSectionRoundTrip(t *testing.T) {
	counts := []uint64{0, 1, 0x7f800001_ffc00001, 0x7f800000_ff800000, 0x00000001_807fffff, math.MaxUint64}
	snap := TakeSnapshot(fixtureNet(), "fixture")
	snap.AddCounts("state", counts)
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if c, err := got.Counts("state"); err != nil || !slices.Equal(c, counts) {
		t.Fatalf("counts %x (%v), want %x", c, err, counts)
	}
	if _, err := got.Counts("FC1.bias"); err == nil {
		t.Fatal("a weight section read as counts")
	}
	if _, err := got.Counts("clock"); err == nil {
		t.Fatal("a missing section read as counts")
	}
	if err := got.Restore(fixtureNet()); err == nil {
		t.Fatal("Restore took a snapshot with a counts section")
	}
}
