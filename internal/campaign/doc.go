// Package campaign is a deterministic parallel experiment runner: it
// executes many independent simulations concurrently over a bounded worker
// pool and aggregates their results into a single summary.
//
// The design mirrors the discipline of SKaMPI-style measurement harnesses
// sweeping message sizes and process counts (the paper's Section 6
// methodology): a campaign is a flat list of independent jobs, each fully
// described by its ID and scenario tags. Determinism is structural rather
// than accidental:
//
//   - every job receives a seed, core.DeriveSeed(campaign seed, job ID), as
//     its Ctx, so its random stream is a pure function of the campaign seed
//     and the job's identity — never of worker count or scheduling order;
//   - results are collected into a slice indexed by submission order, so
//     aggregation never observes completion order;
//   - a panicking job is isolated: the panic is captured (with its stack)
//     as that job's error and the rest of the campaign keeps running.
//
// Simulated quantities are therefore bit-identical at any Workers setting;
// only wall-clock fields vary run to run. Summary.Fingerprint hashes every
// deterministic field, so two runs of the same campaign can be compared
// with a string equality — the check CI performs at -parallel 1 vs 8.
//
// Anything a job derives from Ctx.Seed inherits this contract: the
// experiments layer seeds each simulation's per-rank RNGs from it, and the
// placement axis generates its seeded random rank mappings from it, which
// is why sweeping "-placements random" stays reproducible in parallel.
//
// RunAll adds cancellation for long-running callers (the campaign
// service): when the context fires, in-flight jobs finish and the rest
// land as skipped results with their derived seeds intact, the summary
// marked Canceled. Options.OnResult streams results in completion order,
// and Merge recombines contiguous shard summaries of one grid back into
// the unsharded summary — fingerprint-identically (see
// experiments.GridSpec's shard fields).
package campaign
