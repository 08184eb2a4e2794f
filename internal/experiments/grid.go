package experiments

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"smpigo/internal/campaign"
	"smpigo/internal/core"
	"smpigo/internal/dynamics"
	"smpigo/internal/obs"
	"smpigo/internal/placement"
	"smpigo/internal/platform"
	"smpigo/internal/skampi"
	"smpigo/internal/smpi"
	"smpigo/internal/surf"
	"smpigo/internal/topology"
)

// GridSpec describes an arbitrary scenario campaign beyond the paper's
// figures: the cross product of process counts, message sizes, models, and
// backends for one operation. A grid with 8 process counts, 10 sizes, and
// 3 models is 240 independent simulations — exactly the kind of sweep the
// serial harness could never afford and the campaign pool makes routine.
type GridSpec struct {
	// Op is the measured operation: "scatter", "alltoall", "bcast",
	// "allreduce", or "pingpong".
	Op string `json:"op"`
	// Procs are the process counts to sweep (pingpong always uses 2).
	Procs []int `json:"procs"`
	// Sizes are the per-rank message sizes in bytes.
	Sizes []int64 `json:"sizes"`
	// Models are the analytical point-to-point models to sweep for the
	// surf backend: "piecewise", "bestfit", "default", "ideal".
	Models []string `json:"models,omitempty"`
	// Backends selects timing backends: "surf" (analytical; crossed with
	// Models) and/or "openmpi", "mpich2" (packet-level testbed emulation).
	Backends []string `json:"backends,omitempty"`
	// Platform is "griffon" (default) or "gdx". Ignored when Topologies is
	// set.
	Platform string `json:"platform,omitempty"`
	// Topologies optionally adds a platform axis to the sweep: each entry
	// is "griffon", "gdx", a topology preset (fattree64, torus64,
	// dragonfly72, ...), or a topology shape string such as
	// "fattree:4x4:1x4", "torus:4x4x4", "dragonfly:9x4x2". Every scenario
	// point is then crossed with every topology.
	Topologies []string `json:"topologies,omitempty"`
	// Placements optionally adds a rank-placement axis: "block", "rr", or
	// "random" (see package placement). The random mapping derives from the
	// job's campaign seed, so fingerprints stay bit-identical at any
	// -parallel setting. Empty means the smpi default layout (round-robin
	// over all hosts, unpinned).
	Placements []string `json:"placements,omitempty"`
	// Collectives selects collective algorithm variants for every job, in
	// smpi.ParseAlgorithms grammar: "" or "default" for the package
	// defaults, "auto" for topology-keyed selection, or per-collective
	// overrides like "bcast=ring,allreduce=auto".
	Collectives string `json:"collectives,omitempty"`
	// Dynamics optionally adds a platform-event axis: each entry is a
	// dynamics schedule in the grammar of internal/dynamics ("" or "none"
	// for a static platform), so a sweep can compare the same scenarios on
	// healthy and degraded fabrics. Entries are canonicalized before
	// expansion; non-empty schedules require the surf backend. Events mutate
	// only per-job solver state, never the shared platform, so fingerprints
	// stay bit-identical at any -parallel setting.
	Dynamics []string `json:"dynamics,omitempty"`
	// Stats attaches a per-job obs.Stats to every simulation and records
	// the non-zero counters in each Outcome.Stats; campaign.Run aggregates
	// them into Summary.Stats. Counters never enter the fingerprint, so a
	// stats sweep fingerprints identically to a plain one.
	Stats bool `json:"stats,omitempty"`
	// ShardIndex/ShardCount split the expanded grid by job-index range so
	// one sweep can run across several processes or machines: shard i of n
	// keeps points [i·P/n, (i+1)·P/n) of the P-point grid, with job IDs and
	// derived seeds identical to the unsharded run's. Campaign summaries of
	// all n shards, merged in shard order with campaign.Merge, fingerprint
	// identically to the unsharded campaign. ShardCount 0 (with ShardIndex
	// 0) means unsharded; n larger than the grid simply leaves some shards
	// empty.
	ShardIndex int `json:"shard_index,omitempty"`
	ShardCount int `json:"shard_count,omitempty"`
}

// gridPoint is one scenario coordinate of the expanded grid.
type gridPoint struct {
	topo      string // resolved platform name; empty means spec.Platform
	dynamics  string // canonical dynamics schedule; empty means static
	placement string // canonical placement policy; empty means unpinned
	procs     int
	size      int64
	backend   string
	model     string // empty for emulated backends
}

// Model resolves a point-to-point model name: the three calibrated
// candidates or the uncalibrated ideal model. It is the module's one switch
// over model names (campaign axes and smpirun -model both land here).
func (e *Env) Model(name string) (surf.NetModel, error) {
	switch strings.ToLower(name) {
	case "piecewise":
		return e.Piecewise, nil
	case "bestfit":
		return e.BestFit, nil
	case "default":
		return e.Default, nil
	case "ideal":
		return surf.Ideal(), nil
	default:
		return surf.NetModel{}, fmt.Errorf("unknown model %q (want piecewise, bestfit, default, ideal)", name)
	}
}

// Platform resolves a platform name — a campaign axis value or smpirun's
// -platform: the paper's clusters, then topology presets and shape strings.
// Generated platforms are cached on the env so every job of a sweep shares
// one instance.
func (e *Env) Platform(name string) (*platform.Platform, error) {
	switch strings.ToLower(name) {
	case "", "griffon":
		return e.Griffon, nil
	case "gdx":
		return e.Gdx, nil
	}
	e.topoMu.Lock()
	defer e.topoMu.Unlock()
	if p, ok := e.topoPlatforms[name]; ok {
		return p, nil
	}
	spec, err := topology.ParseSpec(name)
	if err != nil {
		return nil, fmt.Errorf("unknown platform %q (want griffon, gdx, or a topology: %w)", name, err)
	}
	p, err := spec.Build()
	if err != nil {
		return nil, err
	}
	if e.topoPlatforms == nil {
		e.topoPlatforms = make(map[string]*platform.Platform)
	}
	e.topoPlatforms[name] = p
	return p, nil
}

// expand validates the spec and returns the scenario points in grid order.
// Repeated list elements are deduplicated, and pingpong — which always runs
// between two fixed endpoints — collapses the procs dimension.
func (spec GridSpec) expand() ([]gridPoint, error) {
	if len(spec.Procs) == 0 || len(spec.Sizes) == 0 {
		return nil, fmt.Errorf("grid: need at least one process count and one size")
	}
	if len(spec.Backends) == 0 {
		return nil, fmt.Errorf("grid: need at least one backend")
	}
	procCounts := spec.Procs
	op := strings.ToLower(spec.Op)
	if op == "pingpong" {
		procCounts = []int{2}
	}
	if op == "allreduce" {
		for _, size := range spec.Sizes {
			if err := checkFloat64Payload("grid: allreduce", size); err != nil {
				return nil, err
			}
		}
	}
	topos := spec.Topologies
	if len(topos) == 0 {
		topos = []string{""}
	}
	places := make([]string, 0, len(spec.Placements))
	for _, pl := range spec.Placements {
		canonical, err := placement.Normalize(pl)
		if err != nil {
			return nil, fmt.Errorf("grid: %w", err)
		}
		places = append(places, canonical)
	}
	if len(places) == 0 {
		places = []string{""}
	}
	// Canonicalize the dynamics axis up front so "2ms" and "0.002s" variants
	// of one schedule collapse to one grid point.
	dyns := make([]string, 0, len(spec.Dynamics))
	for _, d := range spec.Dynamics {
		sched, err := dynamics.Parse(d)
		if err != nil {
			return nil, fmt.Errorf("grid: dynamics %q: %w", d, err)
		}
		if sched == nil {
			dyns = append(dyns, "")
		} else {
			dyns = append(dyns, sched.String())
		}
	}
	if len(dyns) == 0 {
		dyns = []string{""}
	}
	seen := make(map[gridPoint]bool)
	var points []gridPoint
	add := func(pt gridPoint) {
		if !seen[pt] {
			seen[pt] = true
			points = append(points, pt)
		}
	}
	for _, topo := range topos {
		for _, dyn := range dyns {
			for _, place := range places {
				for _, procs := range procCounts {
					if procs < 2 {
						return nil, fmt.Errorf("grid: process count %d below 2", procs)
					}
					for _, size := range spec.Sizes {
						if size <= 0 {
							return nil, fmt.Errorf("grid: non-positive size %d", size)
						}
						for _, backend := range spec.Backends {
							backend = strings.ToLower(backend)
							switch backend {
							case "surf":
								models := spec.Models
								if len(models) == 0 {
									models = []string{"piecewise"}
								}
								for _, m := range models {
									add(gridPoint{topo, dyn, place, procs, size, backend, strings.ToLower(m)})
								}
							case "openmpi", "mpich2":
								if dyn != "" {
									return nil, fmt.Errorf("grid: dynamics require the surf backend, got %q", backend)
								}
								add(gridPoint{topo, dyn, place, procs, size, backend, ""})
							default:
								return nil, fmt.Errorf("grid: unknown backend %q (want surf, openmpi, mpich2)", backend)
							}
						}
					}
				}
			}
		}
	}
	return shardSlice(points, spec.ShardIndex, spec.ShardCount)
}

// shardSlice keeps shard index's contiguous job-index range of the expanded
// grid. The balanced-split arithmetic (lo = i·P/n) guarantees the n ranges
// tile [0, P) exactly — every point lands in precisely one shard, shards
// differ in size by at most one point, and a shard count beyond the grid
// size yields empty shards rather than an error.
func shardSlice(points []gridPoint, index, count int) ([]gridPoint, error) {
	if count == 0 {
		if index != 0 {
			return nil, fmt.Errorf("grid: shard index %d without a shard count", index)
		}
		return points, nil
	}
	if count < 0 {
		return nil, fmt.Errorf("grid: negative shard count %d", count)
	}
	if index < 0 || index >= count {
		return nil, fmt.Errorf("grid: shard index %d out of range [0,%d)", index, count)
	}
	lo := index * len(points) / count
	hi := (index + 1) * len(points) / count
	return points[lo:hi], nil
}

// ParseShard parses the "i/n" shard shorthand (e.g. "0/2") used by the
// campaign CLI flag and the service API into ShardIndex/ShardCount values.
// Range validation happens at expansion time, where the grid size is known.
func ParseShard(s string) (index, count int, err error) {
	i, n, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("shard %q: want \"i/n\", e.g. \"0/2\"", s)
	}
	if index, err = strconv.Atoi(strings.TrimSpace(i)); err != nil {
		return 0, 0, fmt.Errorf("shard %q: bad index: %v", s, err)
	}
	if count, err = strconv.Atoi(strings.TrimSpace(n)); err != nil {
		return 0, 0, fmt.Errorf("shard %q: bad count: %v", s, err)
	}
	return index, count, nil
}

func (pt gridPoint) id(op string) string {
	id := "grid/" + op
	if pt.topo != "" {
		id += "/topo=" + pt.topo
	}
	if pt.dynamics != "" {
		// Canonical schedules contain spaces; keep IDs single-token.
		id += "/dyn=" + strings.ReplaceAll(pt.dynamics, " ", "_")
	}
	if pt.placement != "" {
		id += "/place=" + pt.placement
	}
	id += fmt.Sprintf("/procs=%d/size=%s/%s", pt.procs, core.FormatBytes(pt.size), pt.backend)
	if pt.model != "" {
		id += "/" + pt.model
	}
	return id
}

func (pt gridPoint) tags(op string) map[string]string {
	t := map[string]string{
		"op":      op,
		"procs":   fmt.Sprint(pt.procs),
		"size":    core.FormatBytes(pt.size),
		"backend": pt.backend,
	}
	if pt.topo != "" {
		t["topo"] = pt.topo
	}
	if pt.dynamics != "" {
		t["dynamics"] = pt.dynamics
	}
	if pt.placement != "" {
		t["placement"] = pt.placement
	}
	if pt.model != "" {
		t["model"] = pt.model
	}
	return t
}

// Jobs expands the spec and returns how many simulations it holds (after
// shard slicing), validating every axis on the way — the pre-flight check
// the campaign service runs before accepting a request, so malformed specs
// fail with a 400 instead of a queued failure.
func (spec GridSpec) Jobs() (int, error) {
	points, err := spec.expand()
	if err != nil {
		return 0, err
	}
	return len(points), nil
}

// CampaignOptions adjusts how GridCampaignOpts executes an expanded grid.
// The zero value reproduces GridCampaign exactly.
type CampaignOptions struct {
	// Ctx cancels the campaign mid-run (see campaign.RunAll); nil means
	// context.Background().
	Ctx context.Context
	// Workers overrides Env.Workers when non-zero, so a shared Env (it is a
	// process-wide singleton) can serve callers with different pool sizes
	// without mutation.
	Workers int
	// Seed overrides Env.Seed when non-nil, for the same reason.
	Seed *uint64
	// OnResult streams per-job results in completion order (see
	// campaign.Options.OnResult).
	OnResult func(i int, r campaign.Result)
}

// GridCampaign expands the spec into campaign jobs and runs them on the
// env's worker pool, returning the full summary (including failures, so a
// broken scenario point does not void the rest of the sweep).
func (e *Env) GridCampaign(spec GridSpec) (*campaign.Summary, error) {
	return e.GridCampaignOpts(spec, CampaignOptions{})
}

// GridCampaignOpts is GridCampaign with per-call context, worker-pool,
// seed, and result-streaming control — the entry point the campaign service
// uses, where one shared Env serves many concurrent requests.
func (e *Env) GridCampaignOpts(spec GridSpec, o CampaignOptions) (*campaign.Summary, error) {
	points, err := spec.expand()
	if err != nil {
		return nil, err
	}
	algos, err := smpi.ParseAlgorithms(spec.Collectives)
	if err != nil {
		return nil, fmt.Errorf("grid: %w", err)
	}
	op := strings.ToLower(spec.Op)
	jobs := make([]campaign.Job, 0, len(points))
	for _, pt := range points {
		platName := pt.topo
		if platName == "" {
			platName = spec.Platform
		}
		plat, err := e.Platform(platName)
		if err != nil {
			return nil, err
		}
		cfg, err := e.gridConfig(plat, pt)
		if err != nil {
			return nil, err
		}
		cfg.Algorithms = algos
		if pt.dynamics != "" {
			// Re-parse the canonical form per job: schedules are armed on the
			// job's own kernel and mutate only its solver state, so concurrent
			// jobs sharing the cached platform never observe each other.
			sched, err := dynamics.Parse(pt.dynamics)
			if err != nil {
				return nil, fmt.Errorf("grid: dynamics %q: %w", pt.dynamics, err)
			}
			cfg.Dynamics = sched
		}
		// Each job gets its own Stats sink: jobs run concurrently, and the
		// wrapped Run flattens the counters into the outcome after the
		// simulation finishes (the sink is quiescent by then).
		var st *obs.Stats
		if spec.Stats {
			st = new(obs.Stats)
			cfg.Stats = st
		}
		job, err := gridJob(op, pt, plat, cfg)
		if err != nil {
			return nil, err
		}
		if st != nil {
			inner := job.Run
			job.Run = func(ctx *campaign.Ctx) (*campaign.Outcome, error) {
				out, err := inner(ctx)
				if out != nil {
					out.Stats = obs.NonZero(st.Flat())
				}
				return out, err
			}
		}
		jobs = append(jobs, job)
	}
	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	workers := o.Workers
	if workers == 0 {
		workers = e.Workers
	}
	seed := e.Seed
	if o.Seed != nil {
		seed = *o.Seed
	}
	return campaign.RunAll(ctx, campaign.Options{Workers: workers, Seed: seed, OnResult: o.OnResult}, jobs), nil
}

func (e *Env) gridConfig(plat *platform.Platform, pt gridPoint) (smpi.Config, error) {
	switch pt.backend {
	case "surf":
		m, err := e.Model(pt.model)
		if err != nil {
			return smpi.Config{}, err
		}
		return surfConfig(plat, m), nil
	case "mpich2":
		cfg := emuConfig(plat)
		cfg.Impl = mpich2()
		return cfg, nil
	default: // openmpi
		return emuConfig(plat), nil
	}
}

func gridJob(op string, pt gridPoint, plat *platform.Platform, cfg smpi.Config) (campaign.Job, error) {
	runs := map[string]func(smpi.Config, int, int64) (*collectiveRun, error){
		"scatter":   runScatter,
		"alltoall":  runAlltoall,
		"bcast":     runBcast,
		"allreduce": runAllreduce,
	}
	if run, ok := runs[op]; ok {
		j := placedCollectiveJob(pt.id(op), cfg, pt.placement, pt.procs, pt.size, run)
		j.Tags = pt.tags(op)
		return j, nil
	}
	if op != "pingpong" {
		return campaign.Job{}, fmt.Errorf("grid: unknown op %q (want scatter, alltoall, bcast, allreduce, pingpong)", op)
	}
	size := pt.size
	place := pt.placement
	return campaign.Job{
		ID:   pt.id(op),
		Tags: pt.tags(op),
		Run: func(ctx *campaign.Ctx) (*campaign.Outcome, error) {
			base := cfg
			base.Seed = ctx.Seed
			// A placed ping-pong runs between the first two ranks of the
			// mapping (e.g. same leaf under "block", distinct leaves under
			// "rr") instead of the platform's first two hosts.
			a, b := plat.HostByID(0), plat.HostByID(1)
			if place != "" {
				hosts, err := placement.Generate(place, plat, 2, ctx.Seed)
				if err != nil {
					return nil, err
				}
				a, b = hosts[0], hosts[1]
			}
			samples, err := skampi.PingPong(skampi.PingPongConfig{
				Base: base,
				A:    a, B: b,
				Sizes: []int64{size},
			})
			if err != nil {
				return nil, err
			}
			return &campaign.Outcome{
				SimulatedTime: core.Time(samples[0].Time),
				Values:        map[string]float64{"oneway_s": samples[0].Time},
				Payload:       samples,
			}, nil
		},
	}, nil
}

// GridTable renders a grid campaign summary as an aligned table, one row
// per scenario point in grid order.
func GridTable(spec GridSpec, sum *campaign.Summary) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Campaign: %s grid (%d jobs, %d workers, seed %d)", spec.Op, sum.Jobs, sum.Workers, sum.Seed),
		Header: []string{"topo", "place", "procs", "size", "backend", "model", "simulated_s", "wall_s"},
	}
	for i := range sum.Results {
		r := &sum.Results[i]
		model := r.Tags["model"]
		if model == "" {
			model = "-"
		}
		topo := r.Tags["topo"]
		if topo == "" {
			if topo = spec.Platform; topo == "" {
				topo = "griffon"
			}
		}
		place := r.Tags["placement"]
		if place == "" {
			place = "-"
		}
		if r.Err != nil {
			reason := "error"
			if r.Panicked {
				reason = "panic"
			}
			t.Add(topo, place, r.Tags["procs"], r.Tags["size"], r.Tags["backend"], model, reason, r.Wall.Seconds())
			// Surface the failure reason (first line only: panics carry a
			// full stack) so broken sweeps are diagnosable without -json.
			msg := r.Error
			if i := strings.IndexByte(msg, '\n'); i >= 0 {
				msg = msg[:i]
			}
			t.Note("%s: %s", r.ID, msg)
			continue
		}
		t.Add(topo, place, r.Tags["procs"], r.Tags["size"], r.Tags["backend"], model,
			float64(r.Outcome.SimulatedTime), r.Wall.Seconds())
	}
	t.Note("total simulated %.6gs, max %.6gs, campaign wall %.3gs, %d failed",
		float64(sum.TotalSimulated), float64(sum.MaxSimulated), sum.Wall.Seconds(), sum.Failed)
	t.Note("fingerprint %s (bit-identical at any -parallel)", sum.Fingerprint())
	return t
}
