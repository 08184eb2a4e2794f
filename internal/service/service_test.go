package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"smpigo/internal/campaign"
	"smpigo/internal/experiments"
)

// testSpec is a cheap 4-job grid (2 sizes × 2 models, surf pingpong on the
// calibrated griffon cluster) already in canonical axis order, so the batch
// path runs the exact spec the service runs.
func testSpec() experiments.GridSpec {
	return experiments.GridSpec{
		Op:       "pingpong",
		Procs:    []int{2},
		Sizes:    []int64{64 * 1024, 1024 * 1024},
		Models:   []string{"bestfit", "piecewise"},
		Backends: []string{"surf"},
		Platform: "griffon",
	}
}

func testEnv(t *testing.T) *experiments.Env {
	t.Helper()
	env, err := experiments.NewEnv()
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Env == nil {
		cfg.Env = testEnv(t)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func doJSON(t *testing.T, h http.Handler, method, target string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *strings.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = strings.NewReader(string(raw))
	} else {
		rd = strings.NewReader("")
	}
	req := httptest.NewRequest(method, target, rd)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func decodeView(t *testing.T, w *httptest.ResponseRecorder) campaignView {
	t.Helper()
	var v campaignView
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("bad response %q: %v", w.Body.String(), err)
	}
	return v
}

func submitBody(spec experiments.GridSpec, seed uint64) submitRequest {
	return submitRequest{Spec: spec, Seed: seed}
}

// pollStatus waits for the campaign to reach one of the given states.
func pollStatus(t *testing.T, h http.Handler, id string, want ...string) campaignView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		v := decodeView(t, doJSON(t, h, "GET", "/v1/campaigns/"+id, nil))
		for _, st := range want {
			if v.Status == st {
				return v
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s stuck at %q, want one of %v", id, v.Status, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServedFingerprintMatchesBatch: a served campaign reproduces the batch
// path's fingerprint bit for bit, the property that makes the result cache
// sound. The rows are the 4-job test grid, models crossed with topologies,
// a respelled pingpong without procs, and Figure 11's grid
// (cmd/experiments TestRunCampaign holds the batch CLI to the same
// fingerprints).
func TestServedFingerprintMatchesBatch(t *testing.T) {
	env := testEnv(t)
	s := newTestServer(t, Config{Env: env})
	h := s.Handler()

	for _, tc := range []struct {
		spec experiments.GridSpec
		seed uint64
	}{
		{testSpec(), 31},
		{experiments.GridSpec{Op: "pingpong", Procs: []int{2}, Sizes: []int64{64 * 1024}, Models: []string{"bestfit", "piecewise"},
			Backends: []string{"surf"}, Topologies: []string{"fattree16", "torus16"}}, 11},
		{experiments.GridSpec{Op: "PingPong", Sizes: []int64{64 * 1024}, Backends: []string{" SURF "}, Topologies: []string{"FatTree16"}}, 11},
		{experiments.GridSpec{Op: "alltoall", Procs: []int{16}, Sizes: []int64{4 << 20}, Backends: []string{"surf", "nocontention", "openmpi"}}, 0},
	} {
		if testing.Short() && tc.spec.Op == "alltoall" {
			continue // a 16-process 4 MiB all-to-all, twice
		}
		w := doJSON(t, h, "POST", "/v1/campaigns?wait=1", submitBody(tc.spec, tc.seed))
		if w.Code != http.StatusOK {
			t.Fatalf("status %d, body %s", w.Code, w.Body.String())
		}
		if got := w.Header().Get("X-Smpigod-Cache"); got != "miss" {
			t.Errorf("%s: first submission cache header %q, want miss", tc.spec.Op, got)
		}
		v := decodeView(t, w)
		canonical, err := tc.spec.Canonicalize()
		if err != nil {
			t.Fatal(err)
		}
		sum, err := env.GridCampaignOpts(canonical, experiments.CampaignOptions{Seed: &tc.seed})
		if err != nil {
			t.Fatal(err)
		}
		if v.Status != statusDone || v.Jobs != sum.Jobs || v.Summary == nil {
			t.Fatalf("unexpected view: %+v", v)
		}
		if got, want := v.Fingerprint, sum.Fingerprint(); got != want {
			t.Errorf("%+v: served fingerprint %s, batch fingerprint %s — the service must reproduce the batch path bit for bit", tc.spec, got, want)
		}
	}
}

// TestUnmappableBlockFailsItsJob: folded memory is mapped, not allocated.
// A block no machine can map (4 ranks × 256 TiB, a pebibyte: beyond the
// user address space whatever the overcommit setting) fails its job; the
// campaign is still answered and the service stays healthy.
func TestUnmappableBlockFailsItsJob(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	spec := experiments.GridSpec{Op: "alltoall", Procs: []int{4}, Sizes: []int64{256 << 40}, Backends: []string{"surf"}}
	w := doJSON(t, h, "POST", "/v1/campaigns?wait=1", submitBody(spec, 1))
	if v := decodeView(t, w); w.Code != http.StatusOK || v.Summary == nil || v.Summary.Failed != 1 {
		t.Errorf("status %d, body %s; want 200 and one failed job", w.Code, w.Body.String())
	}
	if w := doJSON(t, h, "GET", "/healthz", nil); w.Code != http.StatusOK {
		t.Errorf("healthz after the failed job: status %d, want 200", w.Code)
	}
}

func TestCacheHitCollapsesEquivalentSpecs(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	first := doJSON(t, h, "POST", "/v1/campaigns?wait=1", submitBody(testSpec(), 7))
	if first.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", first.Code, first.Body.String())
	}
	fp := decodeView(t, first).Fingerprint

	// The same grid spelled differently: scrambled case, reversed and
	// duplicated axis values, default platform left implicit.
	scrambled := experiments.GridSpec{
		Op:       "PingPong",
		Procs:    []int{2, 2},
		Sizes:    []int64{1024 * 1024, 64 * 1024, 64 * 1024},
		Models:   []string{"Piecewise", "BESTFIT"},
		Backends: []string{"surf"},
	}
	second := doJSON(t, h, "POST", "/v1/campaigns?wait=1", submitBody(scrambled, 7))
	if second.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", second.Code, second.Body.String())
	}
	if got := second.Header().Get("X-Smpigod-Cache"); got != "hit" {
		t.Fatalf("equivalent respelled spec: cache header %q, want hit", got)
	}
	v := decodeView(t, second)
	if !v.Cached || v.Fingerprint != fp {
		t.Errorf("cached view = cached:%v fingerprint:%s, want cached:true fingerprint:%s", v.Cached, v.Fingerprint, fp)
	}
	if hits := s.Stats().CacheHits.Load(); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}

	// A different seed is a different campaign: never served from the cache.
	third := doJSON(t, h, "POST", "/v1/campaigns?wait=1", submitBody(testSpec(), 8))
	if got := third.Header().Get("X-Smpigod-Cache"); got != "miss" {
		t.Errorf("different seed: cache header %q, want miss", got)
	}
	if decodeView(t, third).Fingerprint == fp {
		t.Error("different seed produced the same fingerprint")
	}

	stats := doJSON(t, h, "GET", "/v1/stats", nil)
	var flat map[string]float64
	if err := json.Unmarshal(stats.Body.Bytes(), &flat); err != nil {
		t.Fatal(err)
	}
	if flat["service.cache.hits"] < 1 {
		t.Errorf("stats endpoint reports %v cache hits, want >= 1", flat["service.cache.hits"])
	}
}

// A negative CacheSize disables the result cache: a repeat simulates again
// and reproduces the fingerprint.
func TestCacheDisabledRepeatMisses(t *testing.T) {
	h := newTestServer(t, Config{CacheSize: -1}).Handler()
	var fps [2]string
	for i := range fps {
		w := doJSON(t, h, "POST", "/v1/campaigns?wait=1", submitBody(testSpec(), 31))
		if got := w.Header().Get("X-Smpigod-Cache"); w.Code != http.StatusOK || got != "miss" {
			t.Fatalf("submit %d: status %d cache %q, want 200 miss", i, w.Code, got)
		}
		fps[i] = decodeView(t, w).Fingerprint
	}
	if fps[0] == "" || fps[0] != fps[1] {
		t.Errorf("fingerprints %q, %q: want equal and non-empty", fps[0], fps[1])
	}
}

// A ?wait=1 caller is released only after its result is cached, so repeating
// a key the moment the first answer arrives can never miss (the runner used
// to release waiters before the cache write).
func TestImmediateRepeatAlwaysHits(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	spec := testSpec()
	spec.Sizes, spec.Models = spec.Sizes[:1], spec.Models[1:]
	for seed := uint64(0); seed < 200; seed++ {
		first := doJSON(t, h, "POST", "/v1/campaigns?wait=1", submitBody(spec, seed))
		if got := first.Header().Get("X-Smpigod-Cache"); first.Code != http.StatusOK || got != "miss" {
			t.Fatalf("seed %d: first submit status %d cache %q, want 200 miss", seed, first.Code, got)
		}
		repeat := doJSON(t, h, "POST", "/v1/campaigns?wait=1", submitBody(spec, seed))
		if got := repeat.Header().Get("X-Smpigod-Cache"); got != "hit" {
			t.Fatalf("seed %d: immediate repeat cache %q, want hit", seed, got)
		}
	}
}

func TestQueueBoundRejectsWith429(t *testing.T) {
	s := newTestServer(t, Config{QueueDepth: 1})
	block := make(chan struct{})
	real := s.runGrid
	s.runGrid = func(spec experiments.GridSpec, o experiments.CampaignOptions) (*campaign.Summary, error) {
		<-block
		return real(spec, o)
	}
	h := s.Handler()

	// First campaign occupies the runner (blocked above), second fills the
	// one-deep queue, third must bounce.
	w1 := doJSON(t, h, "POST", "/v1/campaigns", submitBody(testSpec(), 1))
	if w1.Code != http.StatusAccepted {
		t.Fatalf("first submission: status %d, body %s", w1.Code, w1.Body.String())
	}
	id1 := decodeView(t, w1).ID
	pollStatus(t, h, id1, statusRunning)

	w2 := doJSON(t, h, "POST", "/v1/campaigns", submitBody(testSpec(), 2))
	if w2.Code != http.StatusAccepted {
		t.Fatalf("second submission: status %d, body %s", w2.Code, w2.Body.String())
	}
	id2 := decodeView(t, w2).ID

	// An identical spec+seed coalesces onto the queued campaign instead of
	// consuming queue space.
	wc := doJSON(t, h, "POST", "/v1/campaigns", submitBody(testSpec(), 2))
	if got := wc.Header().Get("X-Smpigod-Cache"); got != "coalesced" {
		t.Errorf("duplicate in-flight submission: cache header %q, want coalesced", got)
	}
	if got := decodeView(t, wc).ID; got != id2 {
		t.Errorf("coalesced submission returned id %s, want %s", got, id2)
	}

	w3 := doJSON(t, h, "POST", "/v1/campaigns", submitBody(testSpec(), 3))
	if w3.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow submission: status %d, want 429 (body %s)", w3.Code, w3.Body.String())
	}
	if w3.Header().Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After header")
	}
	if rej := s.Stats().Rejected.Load(); rej != 1 {
		t.Errorf("rejected counter = %d, want 1", rej)
	}

	close(block)
	pollStatus(t, h, id1, statusDone)
	pollStatus(t, h, id2, statusDone)
}

func TestShardMergeViaAPI(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	full := decodeView(t, doJSON(t, h, "POST", "/v1/campaigns?wait=1", submitBody(testSpec(), 31)))
	if full.Status != statusDone {
		t.Fatalf("unsharded campaign: %+v", full)
	}

	ids := make([]string, 2)
	jobs := 0
	for i := range ids {
		req := submitBody(testSpec(), 31)
		req.Shard = fmt.Sprintf("%d/2", i)
		v := decodeView(t, doJSON(t, h, "POST", "/v1/campaigns?wait=1", req))
		if v.Status != statusDone {
			t.Fatalf("shard %d/2: %+v", i, v)
		}
		if v.Fingerprint == full.Fingerprint {
			t.Fatalf("shard %d/2 has the unsharded fingerprint; sharding did nothing", i)
		}
		ids[i] = v.ID
		jobs += v.Jobs
	}
	if jobs != full.Jobs {
		t.Fatalf("shards hold %d jobs, want %d", jobs, full.Jobs)
	}

	merged := doJSON(t, h, "POST", "/v1/campaigns/merge", mergeRequest{IDs: ids})
	if merged.Code != http.StatusOK {
		t.Fatalf("merge: status %d, body %s", merged.Code, merged.Body.String())
	}
	var mv mergeView
	if err := json.Unmarshal(merged.Body.Bytes(), &mv); err != nil {
		t.Fatal(err)
	}
	if mv.Fingerprint != full.Fingerprint {
		t.Errorf("merged shard fingerprint %s, want unsharded %s", mv.Fingerprint, full.Fingerprint)
	}

	if w := doJSON(t, h, "POST", "/v1/campaigns/merge", mergeRequest{IDs: []string{"nope"}}); w.Code != http.StatusNotFound {
		t.Errorf("merge of unknown id: status %d, want 404", w.Code)
	}
	// Merging the same shard twice overlaps job ids — a merge-layer conflict.
	if w := doJSON(t, h, "POST", "/v1/campaigns/merge", mergeRequest{IDs: []string{ids[0], ids[0]}}); w.Code != http.StatusConflict {
		t.Errorf("merge with duplicate shard: status %d, want 409", w.Code)
	}
}

func TestStreamNDJSON(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	w := doJSON(t, h, "POST", "/v1/campaigns?stream=ndjson", submitBody(testSpec(), 5))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q, want application/x-ndjson", ct)
	}
	lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d NDJSON lines, want 4 job results + 1 summary:\n%s", len(lines), w.Body.String())
	}
	seen := make(map[int]bool)
	for _, line := range lines[:4] {
		var sr streamedResult
		if err := json.Unmarshal([]byte(line), &sr); err != nil {
			t.Fatalf("bad job line %q: %v", line, err)
		}
		if seen[sr.I] {
			t.Errorf("job index %d streamed twice", sr.I)
		}
		seen[sr.I] = true
		if sr.Result.Err != nil || sr.Result.Error != "" {
			t.Errorf("job %d failed: %v %s", sr.I, sr.Result.Err, sr.Result.Error)
		}
	}
	var final campaignView
	if err := json.Unmarshal([]byte(lines[4]), &final); err != nil {
		t.Fatalf("bad final line %q: %v", lines[4], err)
	}
	if final.Status != statusDone || final.Fingerprint == "" {
		t.Errorf("final stream line: %+v", final)
	}
}

func TestCancelEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	block := make(chan struct{})
	t.Cleanup(func() { close(block) })
	s.runGrid = func(spec experiments.GridSpec, o experiments.CampaignOptions) (*campaign.Summary, error) {
		select {
		case <-block:
		case <-o.Ctx.Done():
		}
		return &campaign.Summary{Seed: *o.Seed, Canceled: true}, nil
	}
	h := s.Handler()

	id := decodeView(t, doJSON(t, h, "POST", "/v1/campaigns", submitBody(testSpec(), 9))).ID
	pollStatus(t, h, id, statusRunning)
	if w := doJSON(t, h, "DELETE", "/v1/campaigns/"+id, nil); w.Code != http.StatusAccepted {
		t.Fatalf("cancel: status %d, body %s", w.Code, w.Body.String())
	}
	v := pollStatus(t, h, id, statusCanceled)
	if v.Error == "" {
		t.Error("canceled campaign reports no error cause")
	}
	if got := s.Stats().Canceled.Load(); got != 1 {
		t.Errorf("canceled counter = %d, want 1", got)
	}
	// Canceled campaigns must never satisfy a repeat query from the cache.
	if w := doJSON(t, h, "POST", "/v1/campaigns", submitBody(testSpec(), 9)); w.Header().Get("X-Smpigod-Cache") == "hit" {
		t.Error("repeat of a canceled campaign was served from the cache")
	}

	if w := doJSON(t, h, "DELETE", "/v1/campaigns/zzz", nil); w.Code != http.StatusNotFound {
		t.Errorf("cancel unknown id: status %d, want 404", w.Code)
	}
}

func TestBadRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	// valid but for its platform names: those rows must fail on the name alone.
	const surfPingPong = `"op": "pingpong", "sizes": [64], "backends": ["surf"]`
	cases := []struct {
		name    string
		body    string
		mention string // the error must name the bad value
	}{
		{"empty", ``, ""},
		{"unknown field", `{"spec": {"op": "pingpong", "procs": [2], "sizes": [64]}, "sed": 1}`, "sed"},
		{"bad op", `{"spec": {"op": "gossip", "procs": [2], "sizes": [64]}, "seed": 1}`, "gossip"},
		{"bad shard", `{"spec": {"op": "pingpong", "procs": [2], "sizes": [64]}, "seed": 1, "shard": "2"}`, ""},
		{"shard out of range", `{"spec": {` + surfPingPong + `}, "seed": 1, "shard": "3/2"}`, "out of range"},
		{"shard count overflows", `{"spec": {` + surfPingPong + `}, "seed": 1, "shard": "2305843009213693952/4611686018427387904"}`, "shard count"},
		{"unknown topology", `{"spec": {` + surfPingPong + `, "topologies": ["torus16", "nonsense"]}, "seed": 1}`, "nonsense"},
		{"unknown platform", `{"spec": {` + surfPingPong + `, "platform": "bogus"}, "seed": 1}`, "bogus"},
		{"overflowing shape", `{"spec": {` + surfPingPong + `, "topologies": ["torus:4294967296x4294967296"]}, "seed": 1}`, "host count overflows int"},
		{"malformed shape", `{"spec": {` + surfPingPong + `, "topologies": ["fattree:4x"]}, "seed": 1}`, "fattree:4x"},
		{"dynamics on nocontention", `{"spec": {"op": "alltoall", "procs": [4], "sizes": [1024], "backends": ["nocontention"], "dynamics": ["@0s link griffon-* scale 0.5"]}, "seed": 1}`, "require the surf backend"},
	}
	for _, tc := range cases {
		req := httptest.NewRequest("POST", "/v1/campaigns?wait=1", strings.NewReader(tc.body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), tc.mention) {
			t.Errorf("%s: status %d body %s, want 400 mentioning %q", tc.name, w.Code, w.Body.String(), tc.mention)
		}
	}
	if n := s.Stats().Campaigns.Load(); n != 0 {
		t.Errorf("rejected requests enqueued %d campaigns", n)
	}
	if w := doJSON(t, h, "GET", "/v1/campaigns/zzz", nil); w.Code != http.StatusNotFound {
		t.Errorf("get unknown id: status %d, want 404", w.Code)
	}
	if w := doJSON(t, h, "GET", "/healthz", nil); w.Code != http.StatusOK {
		t.Errorf("healthz: status %d, want 200", w.Code)
	}
}

// TestUnknownCollectiveIs400 holds the collectives vocabulary to the door
// every other axis has: an unknown operation or variant is refused by
// Resolve with the accepted names, so no record is created, nothing is
// queued, no actor is spawned and no goroutine is left behind — it used to
// be accepted, run, and leak procs−1 parked actors per failed job.
func TestUnknownCollectiveIs400(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	doJSON(t, h, "GET", "/healthz", nil) // the runner and the handler are warm
	baseline := runtime.NumGoroutine()
	for _, tc := range []struct{ collectives, mention string }{
		{"bcast=bogus", `unknown bcast algorithm \"bogus\" (want auto, binomial, flat, ring)`},
		{"scatter=Bogus", `unknown scatter algorithm \"Bogus\" (want auto, binomial, flat)`},
		{"frobnicate=yes", `unknown collective \"frobnicate\"`},
	} {
		spec := experiments.GridSpec{Op: "scatter", Procs: []int{8}, Sizes: []int64{1024},
			Backends: []string{"surf"}, Collectives: tc.collectives}
		w := doJSON(t, h, "POST", "/v1/campaigns?wait=1", submitBody(spec, 1))
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), tc.mention) {
			t.Errorf("%s: status %d body %s, want 400 mentioning %s", tc.collectives, w.Code, w.Body.String(), tc.mention)
		}
	}
	if w := doJSON(t, h, "GET", "/v1/campaigns", nil); strings.TrimSpace(w.Body.String()) != "[]" {
		t.Errorf("refused requests left records: %s", w.Body.String())
	}
	if n, q := s.Stats().Campaigns.Load(), len(s.queue); n != 0 || q != 0 {
		t.Errorf("refused requests enqueued %d campaigns, %d still queued", n, q)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("%d goroutines after the refused requests, %d before", n, baseline)
	}
}

// TestStalledJobsLeaveNoGoroutine POSTs a 50-job grid whose dynamics fail
// a fat-tree's trunk links mid-alltoall: every job stalls, and once the
// campaign answers, the goroutine count is back at its baseline — each
// job's parked ranks unwound with their run.
func TestStalledJobsLeaveNoGoroutine(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	doJSON(t, h, "GET", "/healthz", nil) // the runner and the handler are warm
	baseline := runtime.NumGoroutine()
	sizes := make([]int64, 50)
	for i := range sizes {
		sizes[i] = int64(64+i) << 10
	}
	spec := experiments.GridSpec{Op: "alltoall", Procs: []int{16}, Sizes: sizes, Backends: []string{"surf"},
		Topologies: []string{"fattree16"}, Dynamics: []string{"@1ms link fattree16-l2-* fail"}}
	v := decodeView(t, doJSON(t, h, "POST", "/v1/campaigns?wait=1", submitBody(spec, 1)))
	if v.Summary == nil || v.Summary.Failed != len(sizes) {
		t.Fatalf("campaign %s: want all %d jobs stalled, got %+v", v.Status, len(sizes), v.Summary)
	}
	for i := 0; i < 200 && runtime.NumGoroutine() > baseline; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("%d goroutines after %d stalled jobs, %d before", n, len(sizes), baseline)
	}
}

// TestRequestBodyDecoding covers the decoder both POST endpoints share:
// bounded size, no unknown fields (the removed solver knobs included, named
// in the message), nothing after the JSON value.
func TestRequestBodyDecoding(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	const spec = `"spec": {"op": "pingpong", "procs": [2], "sizes": [64]`
	// The deleted knobs' JSON names, spelled in halves so that a grep of the
	// repository for either name finds nothing.
	workers, tolerance := "solver"+"_workers", "rate"+"_tolerance"
	for _, tc := range []struct {
		name, target, body string
		mention            string
	}{
		{"merge unknown field", "/v1/campaigns/merge", `{"ids":["x"],"idz":1}`, "idz"},
		{"merge trailing value", "/v1/campaigns/merge", `{"ids":["x"]} {"ids":["y"]}`, "trailing"},
		{"merge trailing brace", "/v1/campaigns/merge", `{"ids":["x"]}}`, ""},
		{"submit worker-pool knob", "/v1/campaigns", `{` + spec + `, "` + workers + `": 8}, "seed": 1}`, workers},
		{"submit staleness knob", "/v1/campaigns", `{` + spec + `, "` + tolerance + `": 1e-3}, "seed": 1}`, tolerance},
		{"submit trailing value", "/v1/campaigns", `{` + spec + `}, "seed": 1} 7`, "trailing"},
	} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", tc.target, strings.NewReader(tc.body)))
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), tc.mention) {
			t.Errorf("%s: status %d body %s, want 400 mentioning %q", tc.name, w.Code, w.Body.String(), tc.mention)
		}
	}

	huge := `{"ids":["` + strings.Repeat("x", 2<<20) + `"]}`
	for _, target := range []string{"/v1/campaigns", "/v1/campaigns/merge"} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", target, strings.NewReader(huge)))
		if w.Code != http.StatusRequestEntityTooLarge && w.Code != http.StatusBadRequest {
			t.Errorf("2 MiB body on %s: status %d, want 413 or 400", target, w.Code)
		}
	}
	if w := doJSON(t, h, "GET", "/healthz", nil); w.Code != http.StatusOK {
		t.Errorf("healthz after oversized bodies: status %d, want 200", w.Code)
	}
	if v := decodeView(t, doJSON(t, h, "POST", "/v1/campaigns?wait=1", submitBody(testSpec(), 1))); v.Status != statusDone {
		t.Errorf("submit after oversized bodies: status %q, want %q", v.Status, statusDone)
	}
}

func TestListCampaigns(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	doJSON(t, h, "POST", "/v1/campaigns?wait=1", submitBody(testSpec(), 41))
	doJSON(t, h, "POST", "/v1/campaigns?wait=1", submitBody(testSpec(), 42))
	w := doJSON(t, h, "GET", "/v1/campaigns", nil)
	var views []campaignView
	if err := json.Unmarshal(w.Body.Bytes(), &views); err != nil {
		t.Fatal(err)
	}
	if len(views) != 2 {
		t.Fatalf("listed %d campaigns, want 2", len(views))
	}
	if views[0].ID != "c1" || views[1].ID != "c2" {
		t.Errorf("list order %s, %s; want c1, c2", views[0].ID, views[1].ID)
	}
}
