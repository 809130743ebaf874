package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
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
	obs, n, fellBack, err := decodeActBody(buf.Bytes(), s.obsLen)
	s.stats.actDecoded(time.Since(start), fellBack)
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
// them on the fallback.
func decodeActBody(b []byte, obsLen int) (obs []float32, n int, fellBack bool, err error) {
	if obs, n, ok := parseAct(b, obsLen); ok {
		return obs, n, false, nil
	}
	var req actRequest
	if err := json.NewDecoder(bytes.NewReader(b)).Decode(&req); err != nil {
		return nil, 0, true, err
	}
	return req.Obs, len(req.Obs), true, nil
}

// parseAct recognises exactly
//
//	ws { ws "obs" ws : ws [ ws number (ws , ws number)* ws ] ws } ws
//
// with RFC 8259 whitespace and number grammar and reports ok=false for
// everything else, valid JSON or not. Each number goes through
// strconv.ParseFloat(…, 32), the call encoding/json makes, so the float32
// bits are the ones it would produce. Values past obsLen are checked and
// counted but not stored: a wrong-sized frame costs its body buffer only.
func parseAct(b []byte, obsLen int) (obs []float32, n int, ok bool) {
	i := skipSpace(b, 0)
	for _, tok := range [...]string{"{", `"obs"`, ":", "["} {
		if !bytes.HasPrefix(b[i:], []byte(tok)) {
			return nil, 0, false
		}
		i = skipSpace(b, i+len(tok))
	}
	obs = make([]float32, 0, obsLen)
	for {
		end := scanNumber(b, i)
		if end < 0 {
			return nil, 0, false
		}
		// No allocation: the string does not escape ParseFloat (it clones
		// the text into any error), so short ones live on the stack.
		// TestActDecodeAllocs holds this.
		f, err := strconv.ParseFloat(string(b[i:end]), 32)
		if err != nil {
			return nil, 0, false // out of float32 range: json words the refusal
		}
		if len(obs) < obsLen {
			obs = append(obs, float32(f))
		}
		n++
		i = skipSpace(b, end)
		if i < len(b) && b[i] == ']' {
			break
		}
		if i == len(b) || b[i] != ',' {
			return nil, 0, false
		}
		i = skipSpace(b, i+1)
	}
	i = skipSpace(b, i+1)
	if i == len(b) || b[i] != '}' {
		return nil, 0, false
	}
	return obs, n, skipSpace(b, i+1) == len(b)
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\r' || b[i] == '\t') {
		i++
	}
	return i
}

// scanNumber returns the end of the RFC 8259 number starting at b[i], or -1
// if there is none: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
func scanNumber(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i == len(b) {
		return -1
	}
	switch c := b[i]; {
	case c == '0':
		i++
	case '1' <= c && c <= '9':
		i = skipDigits(b, i+1)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		end := skipDigits(b, i+1)
		if end == i+1 {
			return -1
		}
		i = end
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		end := skipDigits(b, i)
		if end == i {
			return -1
		}
		i = end
	}
	return i
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
