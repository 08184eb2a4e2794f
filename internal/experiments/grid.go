package experiments

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"

	"smpigo/internal/calibrate"
	"smpigo/internal/campaign"
	"smpigo/internal/core"
	"smpigo/internal/dynamics"
	"smpigo/internal/obs"
	"smpigo/internal/placement"
	"smpigo/internal/smpi"
)

// GridSpec describes an arbitrary scenario campaign beyond the paper's
// figures: the cross product of process counts, message sizes, models, and
// backends for one operation. A grid with 8 process counts, 10 sizes, and
// 3 models is 240 independent simulations — exactly the kind of sweep the
// serial harness could never afford and the campaign pool makes routine.
type GridSpec struct {
	// Op is the measured operation, a key of the app table (AppNames):
	// "scatter", "alltoall", "bcast", "allreduce", "ring", or "pingpong".
	// Names on every axis are matched without regard to case or
	// surrounding whitespace.
	Op string `json:"op"`
	// Procs are the process counts to sweep (pingpong always uses 2).
	Procs []int `json:"procs"`
	// Sizes are the per-rank message sizes in bytes.
	Sizes []int64 `json:"sizes"`
	// Models are the point-to-point models the analytical backends sweep:
	// "piecewise" (the default), "bestfit", "default", "ideal".
	Models []string `json:"models,omitempty"`
	// Backends selects timing backends: "surf" and "nocontention"
	// (analytical, with and without link sharing; crossed with Models)
	// and/or "openmpi", "mpich2" (packet-level testbed emulation).
	Backends []string `json:"backends,omitempty"`
	// Platform is any name Env.Platform resolves, "griffon" by default.
	// Ignored when Topologies is set.
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
	// expansion; link and flow events require the surf backend
	// (dynamics.Schedule.CheckNetwork). Events mutate
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
	variant
}

// variant is one timing column of the grid: a back-end and, for the
// analytical ones, the model it is crossed with (empty for emulators).
type variant struct{ backend, model string }

// grid is a validated GridSpec, the result of the one pass every front end
// shares. The embedded spec holds every axis normalized — trimmed,
// lower-cased, aliases and defaults resolved — in the caller's order,
// repeats included: points is its expansion (the order job IDs, and so
// fingerprints, follow) and canonical its sorted, compacted view (what
// cache keys hash), so the two cannot disagree about what a spec means.
type grid struct {
	GridSpec
	app      app
	algos    smpi.Algorithms
	variants []variant // Backends × Models in caller order
}

// validate is the one normalization pass over a GridSpec: every axis is
// checked here, once, and every "grid: ..." error has its source here.
// Nothing is built — platform names are resolved, not instantiated.
func (spec GridSpec) validate() (g grid, err error) {
	fail := func(format string, args ...any) (grid, error) {
		return grid{}, fmt.Errorf("grid: "+format, args...)
	}
	g.GridSpec = spec
	if g.Op, g.app, err = lookup("op", apps, spec.Op); err != nil {
		return fail("%w", err)
	}
	if g.app.procs != 0 {
		// A fixed-size app (pingpong's two endpoints) ignores the procs
		// axis, so every procs list is equivalent to its one count.
		g.Procs = []int{g.app.procs}
	}
	if len(g.Procs) == 0 {
		return fail("need at least one process count")
	}
	for _, procs := range g.Procs {
		if procs < 2 {
			return fail("process count %d below 2", procs)
		}
	}
	if len(g.Sizes) == 0 {
		return fail("need at least one size")
	}
	for _, size := range g.Sizes {
		if size <= 0 {
			return fail("non-positive size %d", size)
		}
		if g.app.check != nil {
			if err := g.app.check("grid: "+g.Op, size); err != nil {
				return grid{}, err
			}
		}
	}

	// Models only cross with the analytical backends; without one they are
	// inert and drop out. With one, the implicit default becomes explicit.
	modelAxis := make([]string, 0, max(len(spec.Models), 1))
	for _, m := range spec.Models {
		name, _, err := lookup("model", models, m)
		if err != nil {
			return fail("%w", err)
		}
		modelAxis = append(modelAxis, name)
	}
	if len(modelAxis) == 0 {
		modelAxis = append(modelAxis, "piecewise")
	}
	g.Backends, g.Models = make([]string, 0, len(spec.Backends)), nil
	static := "" // a back-end without the contended surf network
	for _, b := range spec.Backends {
		name, cfg, err := backendConfig(b, nil)
		if err != nil {
			return fail("%w", err)
		}
		g.Backends = append(g.Backends, name)
		if cfg.Backend != smpi.BackendSurf || cfg.NoContention {
			static = name
		}
		if cfg.Backend != smpi.BackendSurf {
			g.variants = append(g.variants, variant{backend: name})
			continue
		}
		g.Models = modelAxis
		for _, m := range modelAxis {
			g.variants = append(g.variants, variant{name, m})
		}
	}
	if len(g.Backends) == 0 {
		return fail("need at least one backend")
	}

	g.Topologies = nil
	for _, topo := range spec.Topologies {
		if normName(topo) == "" {
			continue
		}
		name, _, err := platformSpec(topo)
		if err != nil {
			return fail("%w", err)
		}
		g.Topologies = append(g.Topologies, name)
	}
	g.Platform = "" // ignored beside a topology axis
	if len(g.Topologies) == 0 {
		if g.Platform, _, err = platformSpec(spec.Platform); err != nil {
			return fail("%w", err)
		}
	}

	g.Placements = nil
	for _, pl := range spec.Placements {
		name, err := placement.Normalize(strings.TrimSpace(pl))
		if err != nil {
			return fail("%w", err)
		}
		g.Placements = append(g.Placements, name)
	}

	if g.algos, err = smpi.ParseAlgorithms(spec.Collectives); err != nil {
		return fail("%w", err)
	}
	// Summary renders the non-default fields as space-separated "op=algo"
	// pairs in table order and table spelling; re-joined with commas it
	// round-trips through ParseAlgorithms, making it the canonical spelling
	// ("auto" becomes every collective pinned to auto, "default" becomes "").
	g.Collectives = strings.ReplaceAll(g.algos.Summary(), " ", ",")

	// Schedules are kept in their canonical spelling so "2ms" and "0.002s"
	// variants of one schedule collapse to one grid point.
	g.Dynamics = nil
	for _, d := range spec.Dynamics {
		sched, err := dynamics.Parse(d)
		if err != nil {
			return fail("dynamics %q: %w", d, err)
		}
		canonical := ""
		if sched != nil {
			if err := sched.CheckNetwork(static == ""); err != nil {
				return fail("%w, got %q", err, static)
			}
			canonical = sched.String()
		}
		g.Dynamics = append(g.Dynamics, canonical)
	}

	switch {
	case g.ShardCount == 0 && g.ShardIndex != 0:
		return fail("shard index %d without a shard count", g.ShardIndex)
	case g.ShardCount < 0:
		return fail("negative shard count %d", g.ShardCount)
	case g.ShardCount > math.MaxInt32: // keeps points' index·P/n from overflowing
		return fail("shard count %d above %d", g.ShardCount, math.MaxInt32)
	case g.ShardCount > 0 && (g.ShardIndex < 0 || g.ShardIndex >= g.ShardCount):
		return fail("shard index %d out of range [0,%d)", g.ShardIndex, g.ShardCount)
	}
	return g, nil
}

// points expands the grid in the caller's axis order. Repeated entries are
// deduplicated, and a shard keeps its contiguous job-index range: the
// balanced split (lo = i·P/n) makes the n ranges tile [0, P) exactly — every
// point lands in precisely one shard, shards differ in size by at most one
// point, and a shard count beyond the grid size leaves some shards empty.
func (g *grid) points() []gridPoint {
	orStatic := func(axis []string) []string {
		if len(axis) == 0 {
			return []string{""}
		}
		return axis
	}
	seen := make(map[gridPoint]bool)
	var points []gridPoint
	for _, topo := range orStatic(g.Topologies) {
		for _, dyn := range orStatic(g.Dynamics) {
			for _, place := range orStatic(g.Placements) {
				for _, procs := range g.Procs {
					for _, size := range g.Sizes {
						for _, v := range g.variants {
							pt := gridPoint{topo, dyn, place, procs, size, v}
							if !seen[pt] {
								seen[pt] = true
								points = append(points, pt)
							}
						}
					}
				}
			}
		}
	}
	if g.ShardCount > 0 {
		lo := g.ShardIndex * len(points) / g.ShardCount
		hi := (g.ShardIndex + 1) * len(points) / g.ShardCount
		points = points[lo:hi]
	}
	return points
}

// ParseShard parses the "i/n" shard shorthand (e.g. "0/2") used by the
// campaign CLI flag and the service API into ShardIndex/ShardCount values.
// A count below 1 is an error: a spec's count 0 means unsharded, which the
// shorthand has no spelling for. The index is checked at expansion time.
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
	if count < 1 {
		return 0, 0, fmt.Errorf("shard %q: count %d, want at least 1", s, count)
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

// CampaignOptions are a campaign's run settings, and their one home: the
// Env, shared by every caller of the process, holds none. The zero value
// runs on GOMAXPROCS workers under seed 0.
type CampaignOptions struct {
	// Ctx cancels the campaign mid-run (see campaign.RunAll); nil means
	// context.Background().
	Ctx context.Context
	// Workers bounds the worker pool (0 = GOMAXPROCS). Simulated results
	// are bit-identical at any setting; only wall-clock time changes.
	Workers int
	// Seed is the campaign seed, from which each job derives its own; nil
	// means 0.
	Seed *uint64
	// OnResult streams per-job results in completion order (see
	// campaign.Options.OnResult).
	OnResult func(i int, r campaign.Result)
}

// run runs the jobs as one campaign under o.
func (o CampaignOptions) run(jobs []campaign.Job) *campaign.Summary {
	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	var seed uint64
	if o.Seed != nil {
		seed = *o.Seed
	}
	return campaign.RunAll(ctx, campaign.Options{Workers: o.Workers, Seed: seed, OnResult: o.OnResult}, jobs)
}

// GridCampaignOpts expands the spec into campaign jobs and runs them under
// o, returning the full summary (including failures, so a broken scenario
// point does not void the rest of the sweep).
func (e *Env) GridCampaignOpts(spec GridSpec, o CampaignOptions) (*campaign.Summary, error) {
	g, err := spec.validate()
	if err != nil {
		return nil, err
	}
	points := g.points()
	jobs := make([]campaign.Job, len(points))
	for i, pt := range points {
		if jobs[i], err = e.gridJob(&g, pt); err != nil {
			return nil, err
		}
	}
	return o.run(jobs), nil
}

// gridRuns runs each spec as a campaign of its own and returns every job's
// *collectiveRun, spec by spec in grid order, for a figure to read back by
// position. All specs are validated before the first one runs. They cannot
// share one campaign: job IDs do not encode Collectives, so two specs that
// differ only there would give two jobs one ID.
func (e *Env) gridRuns(o CampaignOptions, specs ...GridSpec) ([]*collectiveRun, error) {
	for _, spec := range specs {
		if _, err := spec.validate(); err != nil {
			return nil, err
		}
	}
	var runs []*collectiveRun
	for _, spec := range specs {
		sum, err := e.GridCampaignOpts(spec, o)
		if err != nil {
			return nil, err
		}
		outs, err := sum.Outcomes()
		if err != nil {
			return nil, err
		}
		for _, out := range outs {
			runs = append(runs, out.Payload.(*collectiveRun))
		}
	}
	return runs, nil
}

// gridJob builds the job of one scenario point.
func (e *Env) gridJob(g *grid, pt gridPoint) (campaign.Job, error) {
	platName := pt.topo
	if platName == "" {
		platName = g.Platform
	}
	plat, err := e.Platform(platName)
	if err != nil {
		return campaign.Job{}, err
	}
	cfg, err := e.Config(plat, pt.backend, pt.model)
	if err != nil {
		return campaign.Job{}, err
	}
	cfg.Procs = pt.procs
	cfg.Algorithms = g.algos
	if pt.dynamics != "" {
		// Re-parse the canonical form per job: schedules are armed on the
		// job's own kernel and mutate only its solver state, so concurrent
		// jobs sharing the cached platform never observe each other.
		if cfg.Dynamics, err = dynamics.Parse(pt.dynamics); err != nil {
			return campaign.Job{}, err
		}
	}
	if g.Stats {
		// Each job gets its own sink: jobs run concurrently (simJob flattens
		// it into the outcome once the simulation is over).
		cfg.Stats = new(obs.Stats)
	}
	run := measureCollective(g.app, pt.size)
	if g.app.skampi {
		// A placed ping-pong runs between the first two ranks of the mapping
		// (same leaf under "block", distinct leaves under "rr").
		run = pingPongRun([]int64{pt.size}, func(samples []calibrate.Sample) *campaign.Outcome {
			return &campaign.Outcome{
				SimulatedTime: core.Time(samples[0].Time),
				Values:        map[string]float64{"oneway_s": samples[0].Time},
			}
		})
	}
	return simJob(pt.id(g.Op), pt.tags(g.Op), cfg, pt.placement, run), nil
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
			topo, _, _ = platformSpec(spec.Platform) // it ran, so it resolves
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
			t.add(topo, place, r.Tags["procs"], r.Tags["size"], r.Tags["backend"], model, reason, r.Wall.Seconds())
			// Surface the failure reason (first line only: panics carry a
			// full stack) so broken sweeps are diagnosable without -json.
			msg := r.Error
			if i := strings.IndexByte(msg, '\n'); i >= 0 {
				msg = msg[:i]
			}
			t.note("%s: %s", r.ID, msg)
			continue
		}
		t.add(topo, place, r.Tags["procs"], r.Tags["size"], r.Tags["backend"], model,
			float64(r.Outcome.SimulatedTime), r.Wall.Seconds())
	}
	t.note("total simulated %.6gs, max %.6gs, campaign wall %.3gs, %d failed",
		float64(sum.TotalSimulated), float64(sum.MaxSimulated), sum.Wall.Seconds(), sum.Failed)
	t.note("fingerprint %s (bit-identical at any -parallel)", sum.Fingerprint())
	return t
}
