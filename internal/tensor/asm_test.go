package tensor

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	yRegister = regexp.MustCompile(`\bY\d+\b`)
	xRegister = regexp.MustCompile(`\bX\d+\b`)
)

// legacySSEInAVX returns, for Go assembly src, every instruction that names
// an X register without a VEX mnemonic (one not starting with V) inside a
// TEXT block that also names a Y register. After a 256-bit write such an
// instruction pays an SSE/AVX state transition on every execution. An
// SSE-only function, with no Y register anywhere, is legal.
func legacySSEInAVX(src string) []string {
	var found, legacy []string
	fn, touchesY := "", false
	flush := func() {
		if touchesY {
			found = append(found, legacy...)
		}
	}
	for i, line := range strings.Split(src, "\n") {
		if c := strings.Index(line, "//"); c >= 0 {
			line = line[:c]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if fields[0] == "TEXT" {
			flush()
			fn, touchesY, legacy = fields[1], false, nil
			continue
		}
		touchesY = touchesY || yRegister.MatchString(line)
		if !strings.HasPrefix(fields[0], "V") && xRegister.MatchString(line) {
			legacy = append(legacy, fmt.Sprintf("%s line %d: %s", fn, i+1, strings.Join(fields, " ")))
		}
	}
	flush()
	return found
}

// TestAsmNoLegacySSEInAVX scans every *_amd64.s file in the package: no
// function that touches a Y register may use a legacy-SSE encoding on an X
// register (MOVQ AX, X0 where VMOVQ AX, X0 is meant). The scanner is first
// shown to catch exactly that, and to pass an SSE-only function.
func TestAsmNoLegacySSEInAVX(t *testing.T) {
	probe := `
TEXT ·mixed(SB), NOSPLIT, $0
	MOVQ AX, X13 // legacy encoding in a YMM function
	VPBROADCASTQ X13, Y13
	RET
TEXT ·sseOnly(SB), NOSPLIT, $0
	MOVUPS (SI), X1
	RET
`
	if got := legacySSEInAVX(probe); len(got) != 1 || !strings.HasPrefix(got[0], "·mixed(SB), line 3") {
		t.Fatalf("scanner on the probe = %q, want the one MOVQ in ·mixed", got)
	}
	files, err := filepath.Glob("*_amd64.s")
	if err != nil || len(files) == 0 {
		t.Fatalf("no amd64 assembly found (%v)", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, hit := range legacySSEInAVX(string(src)) {
			t.Errorf("%s: %s: legacy-SSE instruction in a function that uses Y registers; use the VEX form", f, hit)
		}
	}
}
