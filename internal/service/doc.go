// Package service turns the batch campaign engine into a long-running
// simulation service: an HTTP/JSON server (cmd/smpigod) that accepts
// experiments.GridSpec campaigns, runs them on a bounded queue over
// internal/campaign's worker pool, streams per-job results as NDJSON, and
// caches summaries by campaign fingerprint-input.
//
// The cache is the piece the repo's determinism work already paid for:
// identical (canonical spec, seed) pairs produce bit-identical summaries at
// any -parallel, so serving a repeat what-if query from the cache is
// provably indistinguishable from re-simulating it — cache hits cost zero
// simulation and can never be wrong. Requests are
// canonicalized before keying AND before running (GridSpec.Resolve),
// so axis order, duplicates, case, and alias spellings all collapse onto
// one entry.
//
// Sharding rides on the same contract: a spec carrying shard i/n runs the
// grid's job-index range [i·P/n, (i+1)·P/n) with the unsharded job IDs and
// seeds, so the merge endpoint (campaign.Merge over the shard summaries)
// reproduces the unsharded fingerprint exactly — the property the CI
// service-smoke job gates.
//
// Concurrency model: HTTP handlers validate, key, and enqueue; one runner
// goroutine executes campaigns in arrival order, each fanning its jobs out
// over the configured worker pool. The queue is bounded — requests beyond
// the bound get 429 with Retry-After, never unbounded memory — and
// identical in-flight requests coalesce onto the queued campaign instead of
// queueing twice. Shutdown cancels the runner's context: in-flight jobs
// finish, everything else drains as skipped (campaign.RunAll), and canceled
// summaries are never cached.
package service
