package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// actBodyTimeout bounds how long POST /v1/act waits for its body: a frame is
// kilobytes, so a client that has not delivered one in this long has stalled.
// A variable only so the stalled-body test can shorten it.
var actBodyTimeout = 10 * time.Second

// actBodies pools the buffers /v1/act bodies are read into.
var actBodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// pooledBytesPerValue decides which buffers go back to actBodies. A float32
// prints in at most 16 bytes with its comma, so 64 per expected value is four
// worst-case frames: an ordinary body's buffer is reused, one grown by a
// hostile body is left to the collector instead of pinning its size forever.
const pooledBytesPerValue = 64

// actRequest is the body as encoding/json decodes it. An alias, not a named
// type: json's error text spells the struct out.
type actRequest = struct {
	Obs []float32 `json:"obs"`
}

// decodeAct reads one POST /v1/act body under the size cap and the stall
// deadline and returns its observation, which is exactly s.obsLen long.
func (s *Server) decodeAct(w http.ResponseWriter, r *http.Request) ([]float32, error) {
	keep := s.obsLen * pooledBytesPerValue
	buf := actBodies.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= keep+bytes.MinRead {
			buf.Reset()
			actBodies.Put(buf)
		}
	}()
	if n := r.ContentLength; n > 0 {
		// ReadFrom wants MinRead spare bytes before the read that finds EOF.
		buf.Grow(int(min(n, int64(keep))) + bytes.MinRead)
	}

	// A ResponseWriter without deadlines (a test recorder) reads unbounded.
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Now().Add(actBodyTimeout))
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxActBody)); err != nil {
		// The deadline stays: net/http drains what is left of the body
		// before it sends the reply, and must not wait on a stalled one.
		return nil, fmt.Errorf("decoding request: %w", err)
	}
	// With the body in, it comes off: net/http watches the connection with
	// a read during inference, and a timeout there would cancel the request.
	_ = rc.SetReadDeadline(time.Time{})

	start := time.Now()
	obs, n, slow, fellBack, err := decodeActBody(buf.Bytes(), s.obsLen)
	s.stats.actDecoded(time.Since(start), slow, fellBack)
	if err != nil {
		return nil, fmt.Errorf("decoding request: %w", err)
	}
	if n != s.obsLen {
		return nil, s.errObsLen(n)
	}
	return obs, nil
}

// decodeActBody decodes one buffered body. The single pass answers for the
// shape every client sends; any other body goes, unchanged, to encoding/json,
// which alone decides whether it is acceptable and what the error says (first
// value wins, bytes after it are ignored). n is how many values the body
// carries and obs the first min(n, obsLen) of them on the single pass, all of
// them on the fallback; slow counts the single pass's values that strconv read.
func decodeActBody(b []byte, obsLen int) (obs []float32, n, slow int, fellBack bool, err error) {
	if obs, n, slow, ok := parseAct(b, obsLen); ok {
		return obs, n, slow, false, nil
	}
	var req actRequest
	if err := json.NewDecoder(bytes.NewReader(b)).Decode(&req); err != nil {
		return nil, 0, 0, true, err
	}
	return req.Obs, len(req.Obs), 0, true, nil
}

// parseAct recognises exactly
//
//	ws { ws "obs" ws : ws [ ws number (ws , ws number)* ws ] ws } ws
//
// with RFC 8259 whitespace and number grammar and reports ok=false for
// everything else, valid JSON or not. Each number is read once, by number,
// into the float32 strconv.ParseFloat(…, 32) — the call encoding/json makes —
// would produce; slow counts the values number handed to strconv instead. A
// value float32 cannot hold is ok=false: json words the refusal. Values past
// obsLen are checked and counted but not stored: a wrong-sized frame costs
// its body buffer only.
func parseAct(b []byte, obsLen int) (obs []float32, n, slow int, ok bool) {
	i := skipSpace(b, 0)
	for _, tok := range [...]string{"{", `"obs"`, ":", "["} {
		if !bytes.HasPrefix(b[i:], []byte(tok)) {
			return nil, 0, 0, false
		}
		i = skipSpace(b, i+len(tok))
	}
	obs = make([]float32, 0, obsLen)
	for {
		f, end, viaStrconv := number(b, i)
		if end < 0 {
			return nil, 0, 0, false
		}
		if viaStrconv {
			slow++
		}
		if len(obs) < obsLen {
			obs = append(obs, f)
		}
		n++
		i = skipSpace(b, end)
		if i < len(b) && b[i] == ']' {
			break
		}
		if i == len(b) || b[i] != ',' {
			return nil, 0, 0, false
		}
		i = skipSpace(b, i+1)
	}
	i = skipSpace(b, i+1)
	if i == len(b) || b[i] != '}' {
		return nil, 0, 0, false
	}
	return obs, n, slow, skipSpace(b, i+1) == len(b)
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\r' || b[i] == '\t') {
		i++
	}
	return i
}

// exactPow10 are the powers of ten a float64 holds exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// number reads the RFC 8259 number -? (0 | [1-9][0-9]*) (. [0-9]+)?
// ([eE] [+-]? [0-9]+)? at b[i] in one walk and returns the float32
// strconv.ParseFloat(…, 32) makes of it and the index past it; end is -1 if
// there is no number there or float32 cannot hold it.
//
// The walk keeps up to 19 significant digits in m and the decimal exponent
// in e. When m < 2^53, no nonzero digit was dropped, the exponent's digits
// did not saturate and |e| <= 22, float64(m) and 10^|e| are exact, so their
// product or quotient is the decimal value
// rounded once to float64, and float32 of that is the value rounded once to
// float32 — unless the float64 sits exactly on a float32 midpoint, the one
// place two roundings differ from one. That case, a float32 subnormal, a
// value at or past MaxFloat32, and anything outside those bounds go to
// strconv, and viaStrconv says so.
func number(b []byte, i int) (f float32, end int, viaStrconv bool) {
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	if i == len(b) || b[i] < '0' || b[i] > '9' {
		return 0, -1, false
	}
	var m uint64
	digits, e := 0, 0 // significant digits in m; decimal exponent of m's last digit
	dropped := false  // a nonzero digit did not fit in m, or the exponent saturated
	if b[i] == '0' {
		i++
	} else {
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if digits < 19 {
				m = m*10 + uint64(b[i]-'0')
				digits++
			} else {
				e++
				dropped = dropped || b[i] != '0'
			}
		}
	}
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if digits < 19 {
				m = m*10 + uint64(b[i]-'0')
				e--
				if m != 0 {
					digits++ // leading zeros of a fraction are not significant
				}
			} else {
				dropped = dropped || b[i] != '0'
			}
		}
		if i == frac {
			return 0, -1, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		expNeg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		digs, x := i, 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if x < 1e5 { // clear of int overflow
				x = x*10 + int(b[i]-'0')
			} else {
				// e may carry an offset of any size from the mantissa's
				// zeros, so a saturated x is strconv's to read.
				dropped = true
			}
		}
		if i == digs {
			return 0, -1, false
		}
		if expNeg {
			x = -x
		}
		e += x
	}

	if m < 1<<53 && !dropped && -22 <= e && e <= 22 {
		v := float64(m)
		if e < 0 {
			v /= exactPow10[-e]
		} else {
			v *= exactPow10[e]
		}
		if math.Float64bits(v)&(1<<29-1) != 1<<28 && (v == 0 || v >= 0x1p-126) && v < math.MaxFloat32 {
			if neg {
				v = -v
			}
			return float32(v), i, false
		}
	}
	// No allocation: the string does not escape ParseFloat (it clones the
	// text into any error), so short ones live on the stack.
	// TestActDecodeAllocs holds this.
	v, err := strconv.ParseFloat(string(b[start:i]), 32)
	if err != nil {
		return 0, -1, true
	}
	return float32(v), i, true
}
