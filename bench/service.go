package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"smpigo/internal/core"
	"smpigo/internal/service"
)

// The service_mix request classes. A block of 20 consecutive requests holds
// exactly mixCounts of each, shuffled by the seed, so the mix of
// any prefix is the stated one and per-request costs compare across seeds.
const (
	classMiss      = iota // new seed: simulated, cache write
	classHit              // repeat of a cached key, spelled canonically
	classRespelled        // repeat of a cached key, respelled (case, order, duplicates)
	classEvicted          // repeat of a key the LRU no longer holds: simulated again
	numClasses
)

var (
	classNames = [numClasses]string{"miss", "hit", "respelled", "evicted"}
	mixCounts  = [numClasses]int{10, 7, 2, 1}
)

const (
	svcCacheSize  = 128
	svcClients    = 2
	svcRepeatLag  = 4   // a repeat names a key last requested at least this many requests earlier
	svcPrefill    = 160 // untimed misses before the loop: fills the cache and leaves evicted keys
	svcRanks      = 8
	svcMsgBytes   = 64 * core.KiB
	svcSubmitPath = "/v1/campaigns?wait=1"
)

// request is one generated service request.
type request struct {
	key   int // index of the campaign seed among the keys issued so far
	class int
	// wantCached is what a sequential replay of the sequence against a
	// 128-entry LRU predicts for the X-Smpigod-Cache header.
	wantCached bool
}

// mixGenerator produces the request sequence from the seed alone. It keeps
// a model of the service's LRU (keys in recency order) to pick repeats that
// are, or are no longer, cached.
type mixGenerator struct {
	rng    *core.RNG
	base   uint64
	keys   int   // distinct campaign seeds issued so far
	lru    []int // model cache, most recent first
	recent []int // keys of the last svcRepeatLag requests
	block  []int // classes left in the current block
}

func newMixGenerator(seed uint64) *mixGenerator {
	return &mixGenerator{rng: core.NewRNG(core.DeriveSeed(seed, "service_mix")), base: core.DeriveSeed(seed, "service_keys")}
}

// campaignSeed is the seed sent for key index k.
func (g *mixGenerator) campaignSeed(k int) uint64 { return g.base + uint64(k) }

func (g *mixGenerator) touch(k int) {
	for i, c := range g.lru {
		if c == k {
			copy(g.lru[1:i+1], g.lru[:i])
			g.lru[0] = k
			return
		}
	}
	g.lru = append(g.lru, 0)
	copy(g.lru[1:], g.lru)
	g.lru[0] = k
	if len(g.lru) > svcCacheSize {
		g.lru = g.lru[:svcCacheSize]
	}
}

func (g *mixGenerator) isRecent(k int) bool {
	for _, r := range g.recent {
		if r == k {
			return true
		}
	}
	return false
}

func (g *mixGenerator) cached(k int) bool {
	for _, c := range g.lru {
		if c == k {
			return true
		}
	}
	return false
}

// next returns the following request of the sequence.
func (g *mixGenerator) next() request {
	if len(g.block) == 0 {
		for class, n := range mixCounts {
			for i := 0; i < n; i++ {
				g.block = append(g.block, class)
			}
		}
		for i := len(g.block) - 1; i > 0; i-- {
			j := g.rng.Intn(i + 1)
			g.block[i], g.block[j] = g.block[j], g.block[i]
		}
	}
	class := g.block[len(g.block)-1]
	g.block = g.block[:len(g.block)-1]
	return g.issue(class)
}

func (g *mixGenerator) issue(class int) request {
	req := request{class: class, key: -1}
	switch class {
	case classHit, classRespelled:
		// A cached key outside the last few requests: finish releases a
		// ?wait=1 caller before the cache write, so an immediate repeat is
		// not reliably a hit.
		for try := 0; try < 64 && len(g.lru) > svcRepeatLag; try++ {
			if k := g.lru[g.rng.Intn(len(g.lru))]; !g.isRecent(k) {
				req.key, req.wantCached = k, true
				break
			}
		}
	case classEvicted:
		for try := 0; try < 64 && g.keys > svcCacheSize; try++ {
			if k := g.rng.Intn(g.keys); !g.cached(k) && !g.isRecent(k) {
				req.key = k
				break
			}
		}
	}
	if req.key < 0 { // a miss, or no candidate for the class yet
		req.class, req.key = classMiss, g.keys
		g.keys++
	}
	g.touch(req.key)
	g.recent = append(g.recent, req.key)
	if len(g.recent) > svcRepeatLag {
		g.recent = g.recent[1:]
	}
	return req
}

// body renders the request's JSON. A respelled request names the same
// campaign with other case, duplicated axis entries and spelled-out
// defaults, which the service canonicalises to the same cache key.
func (g *mixGenerator) body(req request, stats bool) []byte {
	type spec struct {
		Op       string   `json:"op"`
		Procs    []int    `json:"procs"`
		Sizes    []int64  `json:"sizes"`
		Models   []string `json:"models,omitempty"`
		Backends []string `json:"backends"`
		Platform string   `json:"platform,omitempty"`
		Stats    bool     `json:"stats,omitempty"`
	}
	s := spec{Op: "scatter", Procs: []int{svcRanks}, Sizes: []int64{svcMsgBytes}, Models: []string{"piecewise"}, Backends: []string{"surf"}, Stats: stats}
	if req.class == classRespelled {
		s = spec{Op: "Scatter", Procs: []int{svcRanks, svcRanks}, Sizes: []int64{svcMsgBytes, svcMsgBytes}, Models: []string{"PIECEWISE"}, Backends: []string{"SURF", "surf"}, Platform: "Griffon", Stats: stats}
	}
	blob, err := json.Marshal(struct {
		Spec spec   `json:"spec"`
		Seed uint64 `json:"seed"`
	}{s, g.campaignSeed(req.key)})
	if err != nil {
		panic(err) // a struct of plain fields always marshals
	}
	return blob
}

// reply is the part of the service's campaign view the benchmark checks.
type reply struct {
	Status      string `json:"status"`
	Fingerprint string `json:"fingerprint"`
	Summary     *struct {
		Failed         int                `json:"failed"`
		TotalSimulated float64            `json:"total_simulated_s"`
		Stats          map[string]float64 `json:"stats"`
	} `json:"summary"`
}

type serviceRunner struct {
	srv     *service.Server
	handler http.Handler
	traced  bool

	mu        sync.Mutex // guards everything below (gen.body reads only immutable fields)
	gen       *mixGenerator
	firstFP   map[int]string // key -> fingerprint of its first answer
	simulated float64        // total_simulated_s of the first answer; every campaign is the same scenario
	computed  int            // requests the service simulated rather than served from its cache
	agree     int            // requests whose cache header matched the generator's model
	served    int
}

func serviceSetup(seed uint64, traced bool, spans *spanLog) (runner, error) {
	env, err := newEnv(spans)
	if err != nil {
		return nil, err
	}
	srv, err := service.New(service.Config{Env: env, CacheSize: svcCacheSize, Workers: 2})
	if err != nil {
		return nil, err
	}
	return &serviceRunner{srv: srv, handler: srv.Handler(), traced: traced, gen: newMixGenerator(seed), firstFP: map[int]string{}}, nil
}

func (s *serviceRunner) close() { s.srv.Close() }

// warm fills the cache past its bound with untimed misses, so the timed
// loop starts on a full cache with evicted keys to ask for again.
func (s *serviceRunner) warm() error {
	var m measurement
	for i := 0; i < svcPrefill; i++ {
		s.mu.Lock()
		req := s.gen.issue(classMiss)
		s.mu.Unlock()
		s.serve(req, &m)
	}
	if m.failed > 0 {
		return fmt.Errorf("service prefill: %v", m.failures)
	}
	s.computed, s.agree, s.served = 0, 0, 0
	return nil
}

func (s *serviceRunner) run(deadline time.Time, minOps int, out *measurement) {
	parts := make([]measurement, svcClients)
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func(m *measurement) {
			defer wg.Done()
			for n := 0; n < minOps || time.Now().Before(deadline); n++ {
				s.mu.Lock()
				req := s.gen.next()
				s.mu.Unlock()
				t0 := time.Now()
				s.serve(req, m)
				m.opMS = append(m.opMS, msSince(t0))
			}
		}(&parts[c])
	}
	wg.Wait()
	for i := range parts {
		p := &parts[i]
		out.opMS = append(out.opMS, p.opMS...)
		out.failed += p.failed
		out.failures = append(out.failures, p.failures...)
		for k, v := range p.counters {
			out.count(k, v)
		}
	}
	if len(out.failures) > 5 {
		out.failures = out.failures[:5]
	}
	out.digest = fmt.Sprintf("%016x", math.Float64bits(s.simulated))
	out.fp = s.firstFP[0]
	out.info = map[string]float64{
		"jobs_per_op":     float64(s.computed) / float64(max(s.served, 1)),
		"cache_hit_ratio": float64(s.agree) / float64(max(s.served, 1)),
	}
}

// postCampaign submits one campaign to the handler in process and waits for
// its summary.
func postCampaign(h http.Handler, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, svcSubmitPath, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// serve sends one request through the handler in process and checks the
// answer: 200, a completed campaign without failed jobs, the scenario's
// simulated time, and — for a repeated key — the fingerprint first served.
func (s *serviceRunner) serve(req request, m *measurement) {
	rec := postCampaign(s.handler, s.gen.body(req, s.traced))
	if rec.Code != http.StatusOK {
		m.fail("service: %s request for key %d: status %d: %.200s", classNames[req.class], req.key, rec.Code, rec.Body.String())
		return
	}
	var rep reply
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		m.fail("service: undecodable answer: %v", err)
		return
	}
	if rep.Status != "done" || rep.Summary == nil || rep.Summary.Failed != 0 || rep.Fingerprint == "" {
		m.fail("service: key %d not completed: status %q", req.key, rep.Status)
		return
	}
	cache := rec.Header().Get("X-Smpigod-Cache")
	if cache == "miss" {
		countLayers(m, rep.Summary.Stats, false)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.served++
	if cache != "hit" {
		s.computed++
	}
	if (cache == "hit") == req.wantCached {
		s.agree++
	}
	if first, seen := s.firstFP[req.key]; !seen {
		s.firstFP[req.key] = rep.Fingerprint
	} else if first != rep.Fingerprint {
		m.fail("service: key %d served fingerprint %s, first answer was %s", req.key, rep.Fingerprint, first)
	}
	if s.simulated == 0 {
		s.simulated = rep.Summary.TotalSimulated
	} else if rep.Summary.TotalSimulated != s.simulated {
		m.fail("service: key %d simulated %v s, other campaigns of the scenario %v s", req.key, rep.Summary.TotalSimulated, s.simulated)
	}
}
