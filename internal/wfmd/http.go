// HTTP surface of the workflow service: the /v1/runs lifecycle API on
// top of the shared telemetry mux (/metrics with OpenMetrics
// negotiation, /healthz, pprof — all free from internal/obs), with
// structured request logging wrapped around every handler.
package wfmd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"time"

	"wfserverless/internal/obs"
)

// maxWorkflowBytes bounds a submission body; a 100k-task workflow
// marshals well under this.
const maxWorkflowBytes = 256 << 20

// Handler returns the service's full HTTP handler: lifecycle routes,
// telemetry mux, request logging.
func (s *Server) Handler() http.Handler {
	mux := obs.TelemetryMux(s.WriteMetrics)
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs", s.handleList)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleStatus)
	mux.HandleFunc("POST /v1/runs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /v1/runs/{id}/result", s.handleResult)
	return s.withRequestLog(mux)
}

// statusRecorder captures the status code a handler writes so the
// request log can report it.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// withRequestLog is the logging middleware: method, path, tenant,
// status, latency for every request, including the telemetry routes.
func (s *Server) withRequestLog(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		s.log.Info("http request",
			"method", r.Method,
			"path", r.URL.Path,
			"tenant", tenantOf(r),
			"status", rec.status,
			"latency_ms", float64(time.Since(start).Microseconds())/1000,
		)
	})
}

// tenantOf reads the submission's tenant from the query string or the
// X-Tenant header (query wins).
func tenantOf(r *http.Request) string {
	if t := r.URL.Query().Get("tenant"); t != "" {
		return t
	}
	return r.Header.Get("X-Tenant")
}

func writeJSONResponse(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

// readBody reads a submission into buf, in one exact-size read when the
// declared Content-Length is at most maxPresizeBytes. A larger claim is
// one the body has yet to back: that read grows with the bytes that
// arrive, up to maxWorkflowBytes+1.
func readBody(buf []byte, r *http.Request) ([]byte, error) {
	if n := r.ContentLength; n >= 0 && n <= maxPresizeBytes {
		buf = slices.Grow(buf[:0], int(n))[:n]
		_, err := io.ReadFull(r.Body, buf)
		return buf, err
	}
	b := bytes.NewBuffer(buf[:0])
	_, err := b.ReadFrom(io.LimitReader(r.Body, maxWorkflowBytes+1))
	return b.Bytes(), err
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	bp := bufs.Get().(*[]byte)
	defer putBuf(bp)
	body, err := readBody(*bp, r)
	*bp = body
	if err != nil {
		writeJSONResponse(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	if len(body) > maxWorkflowBytes {
		writeJSONResponse(w, http.StatusRequestEntityTooLarge, errorBody{Error: "workflow too large"})
		return
	}
	st, err := s.Submit(tenantOf(r), r.URL.Query().Get("priority"), body)
	switch {
	case err == nil:
		writeJSONResponse(w, http.StatusAccepted, st)
	case errors.Is(err, ErrQueueFull):
		// The honest-backpressure contract: 429 + Retry-After, the
		// exact pair wfm's resilience layer (and the Client below)
		// already back off on.
		w.Header().Set("Retry-After", strconv.FormatFloat(s.cfg.RetryAfter, 'g', -1, 64))
		writeJSONResponse(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
	default:
		writeJSONResponse(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSONResponse(w, http.StatusOK, s.List(tenantOf(r)))
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Status(r.PathValue("id"))
	if err != nil {
		writeJSONResponse(w, http.StatusNotFound, errorBody{Error: err.Error()})
		return
	}
	writeJSONResponse(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeJSONResponse(w, http.StatusNotFound, errorBody{Error: err.Error()})
		return
	}
	writeJSONResponse(w, http.StatusAccepted, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	res, err := s.Result(r.PathValue("id"))
	switch {
	case err == nil:
		writeJSONResponse(w, http.StatusOK, res)
	case errors.Is(err, ErrNotFound):
		writeJSONResponse(w, http.StatusNotFound, errorBody{Error: err.Error()})
	case errors.Is(err, ErrNotTerminal):
		writeJSONResponse(w, http.StatusConflict, errorBody{Error: fmt.Sprintf("%v; poll GET /v1/runs/%s", err, r.PathValue("id"))})
	default:
		writeJSONResponse(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}
