package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"smpigo/internal/campaign"
	"smpigo/internal/experiments"
	"smpigo/internal/obs"
)

// Config parameterizes a Server. The zero value works: defaults are filled
// in by New.
type Config struct {
	// Env is the shared experiment environment (calibrated models, cached
	// platforms). nil builds the process-wide one via experiments.NewEnv.
	Env *experiments.Env
	// QueueDepth bounds how many campaigns may wait behind the running one;
	// submissions beyond it get 429 + Retry-After. Default 16.
	QueueDepth int
	// CacheSize bounds the result cache (completed summaries held for
	// fingerprint-keyed hits, LRU-evicted). Default 128. 0 keeps the
	// default; negative disables caching.
	CacheSize int
	// Workers is each campaign's worker-pool size (campaign.Options);
	// 0 means GOMAXPROCS. Results are bit-identical at any setting.
	Workers int
	// Stats receives the service counters; nil allocates a private one.
	Stats *obs.ServiceStats
}

// Server is the campaign service: a bounded queue of campaign runs, a
// single runner draining it, and a fingerprint-input-keyed result cache.
// Create with New, serve via Handler, stop with Close.
type Server struct {
	env     *experiments.Env
	stats   *obs.ServiceStats
	workers int
	// runGrid executes one campaign; defaults to env.GridCampaignOpts.
	// Tests swap it to control runner timing.
	runGrid func(experiments.GridSpec, experiments.CampaignOptions) (*campaign.Summary, error)

	baseCtx context.Context
	stop    context.CancelCauseFunc

	queue      chan *record
	running    atomic.Int32
	runnerDone chan struct{}
	start      time.Time

	mu         sync.Mutex
	closed     bool
	byID       map[string]*record
	idOrder    []string // creation order, for eviction and listing
	historyMax int
	inflight   map[string]*record // key -> queued-or-running record
	cache      *resultCache
	nextID     int
}

// campaign lifecycle states as reported by the API.
const (
	statusQueued   = "queued"
	statusRunning  = "running"
	statusDone     = "done"
	statusCanceled = "canceled"
	statusFailed   = "failed"
)

// record is one accepted campaign: its canonical spec, queue/run state, and
// — once finished — its summary and fingerprint.
type record struct {
	id      string
	key     string
	spec    experiments.GridSpec // canonical; what actually runs
	seed    uint64
	jobs    int
	created time.Time
	ctx     context.Context
	cancel  context.CancelCauseFunc

	mu          sync.Mutex
	status      string
	results     []streamedResult // completion-order results so far
	subs        map[chan streamedResult]bool
	finished    bool
	summary     *campaign.Summary
	fingerprint string
	err         error
	done        chan struct{}
}

// streamedResult pairs a job's submission index with its result, the unit
// of the NDJSON stream.
type streamedResult struct {
	I      int             `json:"i"`
	Result campaign.Result `json:"result"`
}

// New builds a Server and starts its runner goroutine.
func New(cfg Config) (*Server, error) {
	env := cfg.Env
	if env == nil {
		var err error
		if env, err = experiments.NewEnv(); err != nil {
			return nil, err
		}
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	switch {
	case cfg.CacheSize == 0:
		cfg.CacheSize = 128
	case cfg.CacheSize < 0:
		cfg.CacheSize = 0
	}
	stats := cfg.Stats
	if stats == nil {
		stats = new(obs.ServiceStats)
	}
	ctx, stop := context.WithCancelCause(context.Background())
	s := &Server{
		env:        env,
		stats:      stats,
		workers:    cfg.Workers,
		baseCtx:    ctx,
		stop:       stop,
		queue:      make(chan *record, cfg.QueueDepth),
		runnerDone: make(chan struct{}),
		start:      time.Now(),
		byID:       make(map[string]*record),
		historyMax: max(4*cfg.CacheSize, 4*cfg.QueueDepth, 64),
		inflight:   make(map[string]*record),
		cache:      newResultCache(cfg.CacheSize),
	}
	s.runGrid = s.env.GridCampaignOpts
	go s.run()
	return s, nil
}

// Close shuts the service down: the running campaign's context is canceled
// (in-flight jobs finish, the rest drain as skipped), queued campaigns run
// under the already-canceled context (immediately skipping everything), and
// Close returns when the runner has exited. Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.stop(errors.New("service shutting down"))
		close(s.queue)
	}
	s.mu.Unlock()
	<-s.runnerDone
}

// Stats returns the service counter set (live; callers may read at any
// time).
func (s *Server) Stats() *obs.ServiceStats { return s.stats }

// errQueueFull is returned by submit when the queue is at its bound; the
// HTTP layer maps it to 429 + Retry-After.
type errQueueFull struct{ depth int }

func (e errQueueFull) Error() string {
	return fmt.Sprintf("campaign queue full (%d pending); retry later", e.depth)
}

// errClosed is returned once Close began.
var errClosed = errors.New("service is shutting down")

// submit registers a campaign for the canonical spec and seed. The bool
// reports whether an identical campaign was already queued or running
// (coalesced) instead of newly enqueued. The caller has already checked the
// result cache.
func (s *Server) submit(spec experiments.GridSpec, key string, seed uint64, jobs int) (*record, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, errClosed
	}
	if rec, ok := s.inflight[key]; ok {
		s.stats.Coalesced.Add(1)
		return rec, true, nil
	}
	s.nextID++
	ctx, cancel := context.WithCancelCause(s.baseCtx)
	rec := &record{
		id:      fmt.Sprintf("c%d", s.nextID),
		key:     key,
		spec:    spec,
		seed:    seed,
		jobs:    jobs,
		created: time.Now(),
		ctx:     ctx,
		cancel:  cancel,
		status:  statusQueued,
		subs:    make(map[chan streamedResult]bool),
		done:    make(chan struct{}),
	}
	select {
	case s.queue <- rec:
	default:
		cancel(nil)
		s.nextID--
		s.stats.Rejected.Add(1)
		return nil, false, errQueueFull{depth: len(s.queue)}
	}
	s.stats.Campaigns.Add(1)
	s.stats.ObserveQueueDepth(len(s.queue) + int(s.running.Load()))
	s.inflight[key] = rec
	s.byID[rec.id] = rec
	s.idOrder = append(s.idOrder, rec.id)
	// Bound the record history: the cache bounds summaries, this bounds the
	// id-indexed metadata, so a long-running service never grows without
	// limit. Records still queued or running are never this old.
	for len(s.idOrder) > s.historyMax {
		delete(s.byID, s.idOrder[0])
		s.idOrder = s.idOrder[1:]
	}
	return rec, false, nil
}

// lookup resolves a campaign id.
func (s *Server) lookup(id string) (*record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.byID[id]
	return rec, ok
}

// cacheGet consults the result cache.
func (s *Server) cacheGet(key string) (*record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.cache.get(key)
	if ok {
		s.stats.CacheHits.Add(1)
	} else {
		s.stats.CacheMisses.Add(1)
	}
	return rec, ok
}

// run is the queue runner: campaigns execute one at a time in arrival
// order, each fanning its jobs out over the configured worker pool.
func (s *Server) run() {
	defer close(s.runnerDone)
	for rec := range s.queue {
		s.runOne(rec)
	}
}

func (s *Server) runOne(rec *record) {
	s.running.Store(1)
	defer s.running.Store(0)
	rec.setStatus(statusRunning)
	seed := rec.seed
	sum, err := s.runGrid(rec.spec, experiments.CampaignOptions{
		Ctx:      rec.ctx,
		Workers:  s.workers,
		Seed:     &seed,
		OnResult: func(i int, r campaign.Result) { rec.emit(i, r) },
	})
	// finish releases ?wait=1 callers, whose next request may repeat this
	// key at once. Holding s.mu across it makes that request — it takes
	// s.mu in cacheGet or submit — see the result cached and the key out of
	// inflight, never the window between.
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.inflight, rec.key)
	switch {
	case err != nil:
		// The spec was validated at submission, so this is unexpected —
		// surface it as the campaign's failure.
		rec.finish(statusFailed, nil, "", err)
	case sum.Canceled:
		s.stats.Canceled.Add(1)
		rec.finish(statusCanceled, sum, "", context.Cause(rec.ctx))
	default:
		s.stats.JobsRun.Add(uint64(sum.Jobs))
		rec.finish(statusDone, sum, sum.Fingerprint(), nil)
		s.cache.put(rec.key, rec)
	}
}

func (rec *record) setStatus(st string) {
	rec.mu.Lock()
	rec.status = st
	rec.mu.Unlock()
}

// emit forwards one completed job to the stream subscribers. Subscriber
// channels are buffered to the campaign's full job count, so the sends
// below never block the worker pool.
func (rec *record) emit(i int, r campaign.Result) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	sr := streamedResult{I: i, Result: r}
	rec.results = append(rec.results, sr)
	for ch := range rec.subs {
		ch <- sr
	}
}

// finish records the campaign's terminal state and releases waiters and
// subscribers.
func (rec *record) finish(st string, sum *campaign.Summary, fingerprint string, err error) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.status = st
	rec.summary = sum
	rec.fingerprint = fingerprint
	rec.err = err
	rec.finished = true
	for ch := range rec.subs {
		close(ch)
		delete(rec.subs, ch)
	}
	close(rec.done)
}

// subscribe returns the results streamed so far plus a live channel for the
// rest (nil when the campaign already finished — past holds everything).
// The unsubscribe func is safe to call regardless.
func (rec *record) subscribe() (past []streamedResult, ch chan streamedResult, unsubscribe func()) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	past = append(past, rec.results...)
	if rec.finished {
		return past, nil, func() {}
	}
	ch = make(chan streamedResult, rec.jobs+1)
	rec.subs[ch] = true
	return past, ch, func() {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		if rec.subs[ch] {
			delete(rec.subs, ch)
		}
	}
}
