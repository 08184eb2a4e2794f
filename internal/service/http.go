package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"smpigo/internal/campaign"
	"smpigo/internal/experiments"
)

// submitRequest is the POST /v1/campaigns body: the GridSpec grammar plus
// the campaign seed and an optional "i/n" shard shorthand (equivalent to
// setting spec.shard_index/shard_count).
type submitRequest struct {
	Spec  experiments.GridSpec `json:"spec"`
	Seed  uint64               `json:"seed"`
	Shard string               `json:"shard,omitempty"`
}

// campaignView is the API's rendering of a campaign record.
type campaignView struct {
	ID      string               `json:"id"`
	Key     string               `json:"key"`
	Status  string               `json:"status"`
	Cached  bool                 `json:"cached,omitempty"`
	Jobs    int                  `json:"jobs"`
	Done    int                  `json:"done_jobs"`
	Seed    uint64               `json:"seed"`
	Spec    experiments.GridSpec `json:"spec"`
	Created time.Time            `json:"created"`
	// Fingerprint and Summary are present once the campaign completed.
	Fingerprint string            `json:"fingerprint,omitempty"`
	Error       string            `json:"error,omitempty"`
	Summary     *campaign.Summary `json:"summary,omitempty"`
}

// mergeRequest is the POST /v1/campaigns/merge body: completed campaign ids
// in shard order.
type mergeRequest struct {
	IDs []string `json:"ids"`
}

type mergeView struct {
	IDs         []string          `json:"ids"`
	Fingerprint string            `json:"fingerprint"`
	Summary     *campaign.Summary `json:"summary"`
}

// Handler returns the service's HTTP API:
//
//	POST   /v1/campaigns         submit a campaign (?wait=1 to block for the
//	                             summary, ?stream=ndjson for per-job results)
//	GET    /v1/campaigns         list known campaigns, newest last
//	GET    /v1/campaigns/{id}    one campaign's status/summary
//	DELETE /v1/campaigns/{id}    cancel a queued or running campaign
//	POST   /v1/campaigns/merge   merge completed shard campaigns
//	GET    /v1/stats             service counters (flat map)
//	GET    /healthz              liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns", s.handleList)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/campaigns/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/campaigns/merge", s.handleMerge)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "uptime_s": time.Since(s.start).Seconds()})
	})
	return mux
}

// maxBodyBytes bounds a request body; the largest legitimate one (a spec
// with every axis spelled out) is a few KiB.
const maxBodyBytes = 1 << 20

// decodeBody decodes the request's JSON body into v: at most maxBodyBytes,
// no unknown fields, nothing but whitespace after the value. On failure it
// writes the error response and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		if err == nil {
			err = errors.New("trailing data after the JSON value")
		}
	}
	code := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	writeErr(w, code, "bad request body: %v", err)
	return false
}

func (rec *record) view(withSummary bool) campaignView {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	v := campaignView{
		ID:          rec.id,
		Key:         rec.key,
		Status:      rec.status,
		Jobs:        rec.jobs,
		Done:        len(rec.results),
		Seed:        rec.seed,
		Spec:        rec.spec,
		Created:     rec.created,
		Fingerprint: rec.fingerprint,
	}
	if rec.finished {
		v.Done = rec.jobs
	}
	if rec.err != nil {
		v.Error = rec.err.Error()
	}
	if withSummary {
		v.Summary = rec.summary
	}
	return v
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Shard != "" {
		idx, count, err := experiments.ParseShard(req.Shard)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		req.Spec.ShardIndex, req.Spec.ShardCount = idx, count
	}
	spec, key, jobs, err := req.Spec.Resolve(req.Seed)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}

	stream := r.URL.Query().Get("stream") != ""
	wait := stream || r.URL.Query().Get("wait") != ""

	if rec, ok := s.cacheGet(key); ok {
		w.Header().Set("X-Smpigod-Cache", "hit")
		if stream {
			s.streamCampaign(w, r, rec, true)
			return
		}
		v := rec.view(true)
		v.Cached = true
		writeJSON(w, http.StatusOK, v)
		return
	}

	rec, coalesced, err := s.submit(spec, key, req.Seed, jobs)
	switch {
	case errors.Is(err, errClosed):
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		var full errQueueFull
		if errors.As(err, &full) {
			// Retry-After scales with the backlog: at least a second, one
			// more per queued campaign ahead of the retry.
			w.Header().Set("Retry-After", strconv.Itoa(1+full.depth))
			writeErr(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if coalesced {
		w.Header().Set("X-Smpigod-Cache", "coalesced")
	} else {
		w.Header().Set("X-Smpigod-Cache", "miss")
	}

	switch {
	case stream:
		s.streamCampaign(w, r, rec, false)
	case wait:
		select {
		case <-rec.done:
			writeJSON(w, http.StatusOK, rec.view(true))
		case <-r.Context().Done():
			// The client gave up; the campaign keeps running (its results
			// stay cacheable for the retry).
			writeJSON(w, http.StatusAccepted, rec.view(false))
		}
	default:
		writeJSON(w, http.StatusAccepted, rec.view(false))
	}
}

// streamCampaign writes the campaign as NDJSON: one {"i", "result"} line
// per job in completion order, then a final line holding the campaign view
// with its summary.
func (s *Server) streamCampaign(w http.ResponseWriter, r *http.Request, rec *record, cached bool) {
	past, live, unsubscribe := rec.subscribe()
	defer unsubscribe()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	for _, sr := range past {
		if enc.Encode(sr) != nil {
			return
		}
	}
	flush()
	if live != nil {
		for {
			select {
			case sr, ok := <-live:
				if !ok {
					live = nil
				} else if enc.Encode(sr) != nil {
					return
				}
				flush()
			case <-r.Context().Done():
				return
			}
			if live == nil {
				break
			}
		}
	}
	v := rec.view(true)
	v.Cached = cached
	_ = enc.Encode(v)
	flush()
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	recs := make([]*record, 0, len(s.idOrder))
	for _, id := range s.idOrder {
		if rec, ok := s.byID[id]; ok {
			recs = append(recs, rec)
		}
	}
	s.mu.Unlock()
	views := make([]campaignView, len(recs))
	for i, rec := range recs {
		views[i] = rec.view(false)
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, rec.view(true))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	rec.cancel(fmt.Errorf("campaign %s canceled by request", rec.id))
	writeJSON(w, http.StatusAccepted, rec.view(false))
}

func (s *Server) handleMerge(w http.ResponseWriter, r *http.Request) {
	var req mergeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.IDs) == 0 {
		writeErr(w, http.StatusBadRequest, "merge needs at least one campaign id")
		return
	}
	parts := make([]*campaign.Summary, len(req.IDs))
	for i, id := range req.IDs {
		rec, ok := s.lookup(id)
		if !ok {
			writeErr(w, http.StatusNotFound, "no campaign %q", id)
			return
		}
		rec.mu.Lock()
		st, sum := rec.status, rec.summary
		rec.mu.Unlock()
		if st != statusDone {
			writeErr(w, http.StatusConflict, "campaign %s is %s; merge needs completed campaigns", id, st)
			return
		}
		parts[i] = sum
	}
	merged, err := campaign.Merge(parts...)
	if err != nil {
		writeErr(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, mergeView{
		IDs:         req.IDs,
		Fingerprint: merged.Fingerprint(),
		Summary:     merged,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	flat := s.stats.Flat()
	s.mu.Lock()
	flat["service.cache.entries"] = float64(s.cache.len())
	flat["service.queue.depth"] = float64(len(s.queue) + int(s.running.Load()))
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, flat)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
