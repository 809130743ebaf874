package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"os"
	"time"

	"dronerl/internal/nn"
)

// maxSnapshotBody bounds a POSTed policy snapshot. The paper's full-size
// network is ~225 MB of float32; leave headroom above that.
const maxSnapshotBody = 512 << 20

// maxActBody bounds a POSTed observation. The largest served input
// (227x227x3 float32 as JSON text) stays well under this.
const maxActBody = 16 << 20

// Handler returns the HTTP API:
//
//	POST /v1/act     {"obs":[...]} → {"action","q","policy_version","batch"}
//	                 400 malformed/mis-shaped, 408 body stalled, 413 body
//	                 over 16 MB, 429 queue full, 503 closed
//	POST /v1/policy  gob nn.Snapshot body → {"policy_version"}
//	                 400 undecodable/wrong layout version, 409 wrong arch or
//	                 parameter topology
//	GET  /v1/policy  → {"policy_version"}
//	GET  /healthz    → {"status":"ok"}
//	GET  /statsz     → Stats
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/act", s.handleAct)
	mux.HandleFunc("POST /v1/policy", s.handlePolicyPost)
	mux.HandleFunc("GET /v1/policy", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]uint64{"policy_version": s.PolicyVersion()})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /statsz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	return mux
}

func (s *Server) handleAct(w http.ResponseWriter, r *http.Request) {
	obs, err := s.decodeAct(w, r)
	if err != nil {
		writeError(w, bodyErrStatus(err), err)
		return
	}
	rep, err := s.Infer(r.Context(), obs)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, rep)
	case errors.Is(err, ErrQueueFull):
		// Backpressure: the client owns the retry. Retry-After 0 says "now,
		// with backoff of your choosing" — the queue drains in milliseconds.
		w.Header().Set("Retry-After", "0")
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrBadObservation):
		writeError(w, http.StatusBadRequest, err)
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		// Context cancellation: the client hung up; any status is unseen.
		writeError(w, http.StatusServiceUnavailable, err)
	}
}

func (s *Server) handlePolicyPost(w http.ResponseWriter, r *http.Request) {
	snap, err := nn.ReadSnapshot(http.MaxBytesReader(w, r.Body, maxSnapshotBody))
	if err != nil {
		// A snapshot cut off mid-stream (a client that died mid-upload)
		// surfaces nn.ErrSnapshotTruncated — the same sentinel the
		// distributed wire protocol reports — and stays a 400: the bytes
		// that arrived are useless. An over-limit body is the client's
		// fault in a different way: 413.
		writeError(w, bodyErrStatus(err), err)
		return
	}
	v, err := s.Reload(snap)
	if err != nil {
		// Decoded fine but does not fit this service: architecture or
		// parameter-topology conflict (409). Non-finite weights fit no
		// service: 400.
		status := http.StatusConflict
		if errors.Is(err, nn.ErrSnapshotNonFinite) {
			status = http.StatusBadRequest
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]uint64{"policy_version": v})
}

// bodyErrStatus distinguishes a request body the server refused to read
// further (413, from http.MaxBytesReader) and one that stalled past its read
// deadline (408) from one that was malformed, truncated or mis-shaped (400).
func bodyErrStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return http.StatusRequestTimeout
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// Serve starts the worker pool and serves the HTTP API on ln until ctx is
// cancelled, then shuts down gracefully: the HTTP server stops accepting,
// in-flight handlers finish, and the workers drain every queued request
// before Serve returns. Returns nil on a clean ctx-driven shutdown.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	s.Start()
	srv := &http.Server{
		Handler: s.Handler(),
		// A client that connects and never finishes its headers, or an
		// idle keep-alive connection, must not hold a socket forever. Bodies
		// are bounded per route: /v1/act sets its own read deadline
		// (actBodyTimeout), /v1/policy legitimately uploads for minutes.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		err := srv.Shutdown(shutCtx)
		s.Close()
		<-errc // always http.ErrServerClosed after Shutdown
		return err
	case err := <-errc:
		s.Close()
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}
