package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// actTableWant is what POST /v1/act answered to every seed at 0ea6ac4, when
// the handler was a bare json.NewDecoder(...).Decode: status code and the
// reply's "error" string, captured there and not to be re-captured for a
// decoder change.
var actTableWant = map[string]struct {
	status int
	msg    string
}{
	"canonical benchmark body":                   {200, ""},
	"canonical serveload body":                   {200, ""},
	"edge numbers in a full frame":               {200, ""},
	"whitespace everywhere":                      {200, ""},
	"upper-case key":                             {200, ""},
	"escaped key":                                {200, ""},
	"full frame then trailing bytes":             {200, ""},
	"full frame then a second value":             {200, ""},
	"full frame, extra key after":                {200, ""},
	"full frame, extra key before":               {200, ""},
	"duplicate obs, full frame last":             {200, ""},
	"UTF-8 BOM":                                  {400, "decoding request: invalid character 'ï' looking for beginning of value"},
	"cut mid-number":                             {400, "decoding request: unexpected EOF"},
	"one value too many":                         {400, "serve: bad observation: got 1025 values, want 1024 (1x32x32)"},
	"five thousand values":                       {400, "serve: bad observation: got 5000 values, want 1024 (1x32x32)"},
	"empty body":                                 {400, "decoding request: EOF"},
	"whitespace only":                            {400, "decoding request: EOF"},
	"empty object":                               {400, "serve: bad observation: got 0 values, want 1024 (1x32x32)"},
	"empty array":                                {400, "serve: bad observation: got 0 values, want 1024 (1x32x32)"},
	"null obs":                                   {400, "serve: bad observation: got 0 values, want 1024 (1x32x32)"},
	"duplicate obs":                              {400, "serve: bad observation: got 1 values, want 1024 (1x32x32)"},
	"nested obs first":                           {400, "serve: bad observation: got 1 values, want 1024 (1x32x32)"},
	"short then trailing":                        {400, "serve: bad observation: got 1 values, want 1024 (1x32x32)"},
	"short then extra brace":                     {400, "serve: bad observation: got 1 values, want 1024 (1x32x32)"},
	"top-level array":                            {400, "decoding request: json: cannot unmarshal array into Go value of type struct { Obs []float32 \"json:\\\"obs\\\"\" }"},
	"top-level number":                           {400, "decoding request: json: cannot unmarshal number into Go value of type struct { Obs []float32 \"json:\\\"obs\\\"\" }"},
	"not JSON":                                   {400, "decoding request: invalid character 'n' looking for beginning of object key string"},
	"missing colon":                              {400, "decoding request: invalid character '[' after object key"},
	"missing close brace":                        {400, "decoding request: unexpected EOF"},
	"missing close bracket":                      {400, "decoding request: invalid character '}' after array element"},
	"trailing comma":                             {400, "decoding request: invalid character ']' looking for beginning of value"},
	"leading comma":                              {400, "decoding request: invalid character ',' looking for beginning of value"},
	"missing comma":                              {400, "decoding request: invalid character '2' after array element"},
	"string element":                             {400, "decoding request: json: cannot unmarshal string into Go struct field .obs of type float32"},
	"null element":                               {400, "serve: bad observation: got 1 values, want 1024 (1x32x32)"},
	"bool element":                               {400, "decoding request: json: cannot unmarshal bool into Go struct field .obs of type float32"},
	"nested element":                             {400, "decoding request: json: cannot unmarshal array into Go struct field .obs of type float32"},
	"object element":                             {400, "decoding request: json: cannot unmarshal object into Go struct field .obs of type float32"},
	"obs is a number":                            {400, "decoding request: json: cannot unmarshal number into Go struct field .obs of type []float32"},
	"obs is a string":                            {400, "decoding request: json: cannot unmarshal string into Go struct field .obs of type []float32"},
	"invalid UTF-8 in key":                       {400, "serve: bad observation: got 0 values, want 1024 (1x32x32)"},
	"control byte in key":                        {400, "decoding request: invalid character '\\x01' in string literal"},
	"short frame -0":                             {400, "serve: bad observation: got 1 values, want 1024 (1x32x32)"},
	"short frame 0":                              {400, "serve: bad observation: got 1 values, want 1024 (1x32x32)"},
	"short frame -0.0":                           {400, "serve: bad observation: got 1 values, want 1024 (1x32x32)"},
	"short frame 0.0e-00":                        {400, "serve: bad observation: got 1 values, want 1024 (1x32x32)"},
	"short frame 1E+2":                           {400, "serve: bad observation: got 1 values, want 1024 (1x32x32)"},
	"short frame 1e2":                            {400, "serve: bad observation: got 1 values, want 1024 (1x32x32)"},
	"short frame 1.0E-2":                         {400, "serve: bad observation: got 1 values, want 1024 (1x32x32)"},
	"short frame 1e-45":                          {400, "serve: bad observation: got 1 values, want 1024 (1x32x32)"},
	"short frame -1e-45":                         {400, "serve: bad observation: got 1 values, want 1024 (1x32x32)"},
	"short frame 1e-46":                          {400, "serve: bad observation: got 1 values, want 1024 (1x32x32)"},
	"short frame 1.1754944e-38":                  {400, "serve: bad observation: got 1 values, want 1024 (1x32x32)"},
	"short frame 1.1754942e-38":                  {400, "serve: bad observation: got 1 values, want 1024 (1x32x32)"},
	"short frame 3.4028235e38":                   {400, "serve: bad observation: got 1 values, want 1024 (1x32x32)"},
	"short frame -3.4028235e+38":                 {400, "serve: bad observation: got 1 values, want 1024 (1x32x32)"},
	"short frame 3.4028234663852886e38":          {400, "serve: bad observation: got 1 values, want 1024 (1x32x32)"},
	"short frame 1e-400":                         {400, "serve: bad observation: got 1 values, want 1024 (1x32x32)"},
	"short frame 123456789012345678901234567890": {400, "serve: bad observation: got 1 values, want 1024 (1x32x32)"},
	"short frame 0.1":                            {400, "serve: bad observation: got 1 values, want 1024 (1x32x32)"},
	"short frame 0.30000001192092896":            {400, "serve: bad observation: got 1 values, want 1024 (1x32x32)"},
	"short frame 16777217":                       {400, "serve: bad observation: got 1 values, want 1024 (1x32x32)"},
	"short frame 1.00000017881393432617187500":   {400, "serve: bad observation: got 1 values, want 1024 (1x32x32)"},
	"short frame 8.5":                            {400, "serve: bad observation: got 1 values, want 1024 (1x32x32)"},
	"short frame 0.000001":                       {400, "serve: bad observation: got 1 values, want 1024 (1x32x32)"},
	"short frame 1e-7":                           {400, "serve: bad observation: got 1 values, want 1024 (1x32x32)"},
	"short frame 9.999999e-5":                    {400, "serve: bad observation: got 1 values, want 1024 (1x32x32)"},
	"refused number 01":                          {400, "decoding request: invalid character '1' after array element"},
	"refused number -01":                         {400, "decoding request: invalid character '1' after array element"},
	"refused number 00":                          {400, "decoding request: invalid character '0' after array element"},
	"refused number .5":                          {400, "decoding request: invalid character '.' looking for beginning of value"},
	"refused number -.5":                         {400, "decoding request: invalid character '.' in numeric literal"},
	"refused number +1":                          {400, "decoding request: invalid character '+' looking for beginning of value"},
	"refused number 1.":                          {400, "decoding request: invalid character ']' after decimal point in numeric literal"},
	"refused number 1.e2":                        {400, "decoding request: invalid character 'e' after decimal point in numeric literal"},
	"refused number 1e":                          {400, "decoding request: invalid character ']' in exponent of numeric literal"},
	"refused number 1e+":                         {400, "decoding request: invalid character ']' in exponent of numeric literal"},
	"refused number 1E-":                         {400, "decoding request: invalid character ']' in exponent of numeric literal"},
	"refused number -":                           {400, "decoding request: invalid character ']' in numeric literal"},
	"refused number --1":                         {400, "decoding request: invalid character '-' in numeric literal"},
	"refused number 1-":                          {400, "decoding request: invalid character '-' after array element"},
	"refused number 1e2.5":                       {400, "decoding request: invalid character '.' after array element"},
	"refused number NaN":                         {400, "decoding request: invalid character 'N' looking for beginning of value"},
	"refused number nan":                         {400, "decoding request: invalid character 'a' in literal null (expecting 'u')"},
	"refused number Infinity":                    {400, "decoding request: invalid character 'I' looking for beginning of value"},
	"refused number -Infinity":                   {400, "decoding request: invalid character 'I' in numeric literal"},
	"refused number Inf":                         {400, "decoding request: invalid character 'I' looking for beginning of value"},
	"refused number 0x10":                        {400, "decoding request: invalid character 'x' after array element"},
	"refused number 1_000":                       {400, "decoding request: invalid character '_' after array element"},
	"refused number 1x":                          {400, "decoding request: invalid character 'x' after array element"},
	"refused number 1.5f":                        {400, "decoding request: invalid character 'f' after array element"},
	"refused number ١":                           {400, "decoding request: invalid character 'Ù' looking for beginning of value"},
	"refused number 1e999":                       {400, "decoding request: json: cannot unmarshal number 1e999 into Go struct field .obs of type float32"},
	"refused number -1e999":                      {400, "decoding request: json: cannot unmarshal number -1e999 into Go struct field .obs of type float32"},
	"refused number 3.5e38":                      {400, "decoding request: json: cannot unmarshal number 3.5e38 into Go struct field .obs of type float32"},
	"refused number 3.4028236e38":                {400, "decoding request: json: cannot unmarshal number 3.4028236e38 into Go struct field .obs of type float32"},
	"refused number 1e39":                        {400, "decoding request: json: cannot unmarshal number 1e39 into Go struct field .obs of type float32"},
}

// refDecode is the decoder POST /v1/act used before the single pass, and the
// reference it is held to: first JSON value wins, trailing bytes ignored.
func refDecode(b []byte) ([]float32, error) {
	var req struct {
		Obs []float32 `json:"obs"`
	}
	err := json.NewDecoder(bytes.NewReader(b)).Decode(&req)
	return req.Obs, err
}

// checkActDecode holds decodeActBody to refDecode on one body: the same
// verdict, the same error text, the same count, the same float32 bits.
func checkActDecode(t *testing.T, b []byte, obsLen int) {
	t.Helper()
	want, wantErr := refDecode(b)
	obs, n, fellBack, err := decodeActBody(b, obsLen)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("obsLen %d, body %q: error %v, encoding/json says %v", obsLen, b, err, wantErr)
	}
	if err != nil {
		return
	}
	if n != len(want) {
		t.Fatalf("obsLen %d, body %q: counted %d values, encoding/json decodes %d", obsLen, b, n, len(want))
	}
	if stored := min(n, obsLen); !fellBack && (len(obs) != stored || cap(obs) > obsLen) {
		t.Fatalf("obsLen %d, body %q: single pass stored len %d cap %d of %d values", obsLen, b, len(obs), cap(obs), n)
	}
	if fellBack && len(obs) != n {
		t.Fatalf("obsLen %d, body %q: fallback returned %d of %d values", obsLen, b, len(obs), n)
	}
	for i, v := range obs {
		if math.Float32bits(v) != math.Float32bits(want[i]) {
			t.Fatalf("obsLen %d, body %q: value %d is %v (%#08x), encoding/json gives %v (%#08x)",
				obsLen, b, i, v, math.Float32bits(v), want[i], math.Float32bits(want[i]))
		}
	}
}

// FuzzActDecode: for arbitrary bytes the /v1/act decoder and plain
// encoding/json agree on accept or reject and, when they accept, on every
// float32 bit. Frames of 32 values keep the seeds short; obsLen 3 puts the
// stop-storing branch within the fuzzer's reach.
func FuzzActDecode(f *testing.F) {
	for _, seed := range actSeeds(32) {
		if len(seed.body) < 4<<10 {
			f.Add([]byte(seed.body))
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkActDecode(t, b, 32)
		checkActDecode(t, b, 3)
	})
}

// TestActSeedsTakeTheIntendedPath keeps the corpus honest: the bodies the
// load generators send, and the edge numbers, must be answered by the single
// pass, and the shapes it was never meant to know must reach encoding/json.
func TestActSeedsTakeTheIntendedPath(t *testing.T) {
	fast := map[string]bool{
		"canonical benchmark body": true, "canonical serveload body": true,
		"edge numbers in a full frame": true, "whitespace everywhere": true,
		"one value too many": true, "five thousand values": true,
	}
	for _, seed := range actSeeds(1024) {
		_, _, fellBack, _ := decodeActBody([]byte(seed.body), 1024)
		want := !fast[seed.name] && !strings.HasPrefix(seed.name, "short frame ")
		if fellBack != want {
			t.Errorf("%s: fell back to encoding/json = %v, want %v", seed.name, fellBack, want)
		}
	}
}

// TestActStatusTable posts every seed through the real handler and holds the
// status code and error string to what the parent commit answered; a 200
// must also carry the Q-values of the observation encoding/json decodes.
func TestActStatusTable(t *testing.T) {
	snap, _ := freshPolicy(t, 91)
	s, err := New(Config{Snapshot: snap, Workers: 1, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()
	h := s.Handler()
	seeds := actSeeds(1024)
	if len(seeds) != len(actTableWant) {
		t.Fatalf("%d seeds, %d captured answers", len(seeds), len(actTableWant))
	}
	for _, seed := range seeds {
		want, ok := actTableWant[seed.name]
		if !ok {
			t.Errorf("%s: no captured answer", seed.name)
			continue
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/act", strings.NewReader(seed.body)))
		var got struct {
			Reply
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Errorf("%s: reply %q: %v", seed.name, rec.Body.Bytes(), err)
			continue
		}
		if rec.Code != want.status || got.Error != want.msg {
			t.Errorf("%s: %d %q, parent answered %d %q", seed.name, rec.Code, got.Error, want.status, want.msg)
		}
		if rec.Code != http.StatusOK {
			continue
		}
		obs, err := refDecode([]byte(seed.body))
		if err != nil {
			t.Fatalf("%s: answered 200 but encoding/json refuses the body: %v", seed.name, err)
		}
		rep, err := s.Infer(context.Background(), obs)
		if err != nil {
			t.Fatal(err)
		}
		if got.Action != rep.Action || len(got.Q) != len(rep.Q) {
			t.Fatalf("%s: reply %+v, want %+v", seed.name, got.Reply, rep)
		}
		for a := range rep.Q {
			if math.Float32bits(got.Q[a]) != math.Float32bits(rep.Q[a]) {
				t.Errorf("%s: Q[%d] = %v, want %v", seed.name, a, got.Q[a], rep.Q[a])
			}
		}
	}
}

// TestActDecodeAllocs: a canonical frame costs the observation slice and
// nothing proportional to its 1024 numbers (json.Decoder.Decode over the
// same body allocates 25 times and 44 KB).
func TestActDecodeAllocs(t *testing.T) {
	body := []byte(actSeeds(1024)[0].body)
	allocs := testing.AllocsPerRun(100, func() {
		if _, n, fellBack, err := decodeActBody(body, 1024); n != 1024 || fellBack || err != nil {
			t.Fatalf("canonical body: n %d, fell back %v, err %v", n, fellBack, err)
		}
	})
	if allocs > 2 {
		t.Errorf("decoding a canonical 1024-float body allocates %.0f times, want at most 2", allocs)
	}
}

// TestActDecodeRoundTrip: every finite float32 survives json.Marshal → the
// single pass with its bits intact, over a million random bit patterns.
func TestActDecodeRoundTrip(t *testing.T) {
	frames := 1000
	if testing.Short() {
		frames = 50
	}
	rng := rand.New(rand.NewSource(20))
	obs := make([]float32, 1024)
	for f := 0; f < frames; f++ {
		for i := range obs {
			for {
				obs[i] = math.Float32frombits(rng.Uint32())
				if !math.IsNaN(float64(obs[i])) && !math.IsInf(float64(obs[i]), 0) {
					break
				}
			}
		}
		body, err := json.Marshal(map[string][]float32{"obs": obs})
		if err != nil {
			t.Fatal(err)
		}
		got, n, ok := parseAct(body, len(obs))
		if !ok || n != len(obs) {
			t.Fatalf("frame %d: single pass refused a marshalled frame (ok %v, n %d)", f, ok, n)
		}
		for i := range obs {
			if math.Float32bits(got[i]) != math.Float32bits(obs[i]) {
				t.Fatalf("frame %d value %d: sent %#08x, decoded %#08x", f, i, math.Float32bits(obs[i]), math.Float32bits(got[i]))
			}
		}
	}
}

// TestActHostileBodyBounded: a body just under the 16 MB cap holding
// millions of values is still answered 400 with the true count, but costs
// the server its body buffer only — not the 1.5M-entry slice encoding/json
// grew before the length check refused it.
func TestActHostileBodyBounded(t *testing.T) {
	hostile := func(values int) string { return `{"obs":[` + strings.Repeat("1,", values-1) + "1]}" }
	obs, n, fellBack, err := decodeActBody([]byte(hostile(100_000)), 1024)
	if n != 100_000 || len(obs) != 1024 || cap(obs) != 1024 || fellBack || err != nil {
		t.Fatalf("n %d len %d cap %d fell back %v err %v; want 100000 counted, 1024 stored, single pass", n, len(obs), cap(obs), fellBack, err)
	}

	snap, _ := freshPolicy(t, 92)
	s, err := New(Config{Snapshot: snap, Workers: 1, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/act", strings.NewReader(hostile((maxActBody-16)/2))))
	want := `got 8388600 values, want 1024 (1x32x32)`
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), want) {
		t.Fatalf("hostile body: %d %s, want 400 naming %q", rec.Code, rec.Body.String(), want)
	}
	if st := s.Stats(); st.ActFallbacks != 0 || st.ActDecoded != 1 {
		t.Errorf("hostile body: act_decoded %d act_fallbacks %d, want 1 and 0", st.ActDecoded, st.ActFallbacks)
	}
}

// TestActStalledBody: a client that sends its headers and half a frame and
// then goes quiet is answered 408 when the read deadline passes, instead of
// holding the handler until it hangs up. /v1/policy is not under that
// deadline: an upload that pauses for longer still installs.
func TestActStalledBody(t *testing.T) {
	defer func(d time.Duration) { actBodyTimeout = d }(actBodyTimeout)
	actBodyTimeout = 100 * time.Millisecond

	snap, _ := freshPolicy(t, 93)
	s, base, stop := startHTTP(t, Config{Snapshot: snap, Workers: 1, MaxBatch: 1})
	defer stop()
	addr := strings.TrimPrefix(base, "http://")

	post := func(path string, body []byte, pause time.Duration) *http.Response {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		req, err := http.NewRequest("POST", base+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var wire bytes.Buffer
		req.Write(&wire)
		half := wire.Len() - len(body)/2
		if _, err := conn.Write(wire.Bytes()[:half]); err != nil {
			t.Fatal(err)
		}
		if pause > 0 {
			time.Sleep(pause)
			if _, err := conn.Write(wire.Bytes()[half:]); err != nil {
				t.Fatal(err)
			}
		}
		resp, err := http.ReadResponse(bufio.NewReader(conn), req)
		if err != nil {
			t.Fatalf("POST %s: no response to a stalled body: %v", path, err)
		}
		return resp
	}

	start := time.Now()
	resp := post("/v1/act", []byte(actSeeds(1024)[0].body), 0)
	var msg struct {
		Error string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&msg)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestTimeout || !strings.HasPrefix(msg.Error, "decoding request: ") {
		t.Fatalf("stalled act body: %d %q, want 408", resp.StatusCode, msg.Error)
	}
	if waited := time.Since(start); waited < actBodyTimeout || waited > 5*time.Second {
		t.Errorf("408 after %v, deadline is %v", waited, actBodyTimeout)
	}
	if st := s.Stats(); st.ActDecoded != 0 {
		t.Errorf("a body that never arrived counts as decoded: %+v", st.ActDecoded)
	}

	var gob bytes.Buffer
	fresh, _ := freshPolicy(t, 94)
	if err := fresh.Encode(&gob); err != nil {
		t.Fatal(err)
	}
	resp = post("/v1/policy", gob.Bytes(), 3*actBodyTimeout)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || s.PolicyVersion() != 2 {
		t.Fatalf("paused policy upload: %d, version %d; want 200 and version 2", resp.StatusCode, s.PolicyVersion())
	}
}
