package obs

import "sync/atomic"

// ServiceStats counts the campaign service's work: requests, queueing,
// cache behavior, and jobs simulated. Unlike the kernel counters in Stats —
// which one single-threaded simulation owns — these are bumped from
// concurrent HTTP handlers and the queue runner, so every field is atomic.
// Flat keys follow the repo-wide convention: ".max" marks high-water marks
// (a campaign summary merges them by maximum, everything else by sum),
// and none of them ever enters a campaign fingerprint.
type ServiceStats struct {
	// Campaigns counts accepted campaign runs (cache misses that were
	// enqueued); JobsRun counts the simulations they executed.
	Campaigns atomic.Uint64
	JobsRun   atomic.Uint64
	// CacheHits/CacheMisses count result-cache lookups by outcome;
	// Coalesced counts requests attached to an identical campaign already
	// queued or running instead of enqueued again.
	CacheHits   atomic.Uint64
	CacheMisses atomic.Uint64
	Coalesced   atomic.Uint64
	// Rejected counts requests turned away with 429 because the queue was
	// at its bound.
	Rejected atomic.Uint64
	// Canceled counts campaigns that ended canceled (shutdown or explicit
	// cancellation) rather than complete.
	Canceled atomic.Uint64
	// QueueDepthMax is the high-water mark of campaigns queued or running.
	QueueDepthMax atomic.Uint64
}

// ObserveQueueDepth folds one queue-depth observation into the high-water
// mark.
func (s *ServiceStats) ObserveQueueDepth(depth int) {
	for {
		cur := s.QueueDepthMax.Load()
		if uint64(depth) <= cur || s.QueueDepthMax.CompareAndSwap(cur, uint64(depth)) {
			return
		}
	}
}

// Flat returns the counters as a flat metric map, same contract as
// Stats.Flat: stable keys, ".max" for high-water marks.
func (s *ServiceStats) Flat() map[string]float64 {
	return map[string]float64{
		"service.campaigns":       float64(s.Campaigns.Load()),
		"service.jobs":            float64(s.JobsRun.Load()),
		"service.cache.hits":      float64(s.CacheHits.Load()),
		"service.cache.misses":    float64(s.CacheMisses.Load()),
		"service.coalesced":       float64(s.Coalesced.Load()),
		"service.rejected":        float64(s.Rejected.Load()),
		"service.canceled":        float64(s.Canceled.Load()),
		"service.queue.depth.max": float64(s.QueueDepthMax.Load()),
	}
}

// Report renders the counters as an aligned key/value block, keys sorted,
// zeros dropped.
func (s *ServiceStats) Report() string { return FormatFlat(s.Flat()) }
