package experiments

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"smpigo/internal/calibrate"
	"smpigo/internal/campaign"
	"smpigo/internal/core"
	"smpigo/internal/emu"
	"smpigo/internal/obs"
	"smpigo/internal/placement"
	"smpigo/internal/platform"
	"smpigo/internal/skampi"
	"smpigo/internal/smpi"
	"smpigo/internal/surf"
	"smpigo/internal/topology"
)

// The scenario path: names → validated spec → smpi.Config → app →
// campaign.Job → smpi.Run. Every vocabulary a front end accepts — platforms,
// back-ends, models, apps — has its one table or switch in this file, and
// every simulation a campaign runs is wrapped by simJob. See
// docs/ARCHITECTURE.md, "The scenario path".

// normName is the spelling rule for every name a front end accepts: case
// and surrounding whitespace never matter.
func normName(s string) string { return strings.ToLower(strings.TrimSpace(s)) }

// lookup finds a name in one of the vocabulary tables and returns its
// normalized spelling; the error names the value and lists the table's keys.
func lookup[T any](kind string, table map[string]T, name string) (string, T, error) {
	key := normName(name)
	v, ok := table[key]
	if !ok {
		return "", v, fmt.Errorf("unknown %s %q (want %s)", kind, name,
			strings.Join(slices.Sorted(maps.Keys(table)), ", "))
	}
	return key, v, nil
}

// models is the one table of point-to-point model names: the three
// calibrated candidates and the uncalibrated ideal model.
var models = map[string]func(*Env) surf.NetModel{
	"piecewise": func(e *Env) surf.NetModel { return e.Piecewise },
	"bestfit":   func(e *Env) surf.NetModel { return e.BestFit },
	"default":   func(e *Env) surf.NetModel { return e.Default },
	"ideal":     func(*Env) surf.NetModel { return surf.Ideal() },
}

// clusters are the paper's two testbeds, which the Env holds built.
var clusters = map[string]func(*Env) *platform.Platform{
	"griffon": func(e *Env) *platform.Platform { return e.Griffon },
	"gdx":     func(e *Env) *platform.Platform { return e.Gdx },
}

// platformSpec normalizes a platform name and resolves it without building
// anything: the paper's clusters ("" means griffon; their spec is nil, the
// Env holds them built), then topology presets and shape strings.
func platformSpec(name string) (string, topology.Spec, error) {
	if name = normName(name); name == "" {
		name = "griffon"
	}
	if _, ok := clusters[name]; ok {
		return name, nil, nil
	}
	spec, err := topology.ParseSpec(name)
	if err != nil {
		return "", nil, fmt.Errorf("unknown platform %q (want griffon, gdx, or a topology: %w)", name, err)
	}
	return name, spec, nil
}

// Platform resolves a platform name — a campaign axis value or smpirun's
// -platform. Generated platforms are cached on the env so every job of a
// sweep shares one instance and its route cache.
func (e *Env) Platform(name string) (*platform.Platform, error) {
	e.topoMu.Lock()
	defer e.topoMu.Unlock()
	if p, ok := e.topoPlatforms[normName(name)]; ok {
		return p, nil
	}
	name, spec, err := platformSpec(name)
	if err != nil {
		return nil, err
	}
	if spec == nil {
		return clusters[name](e), nil
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

// backendConfig is the one switch over timing back-end names: it returns
// the name's canonical spelling and the config a run on plat starts from
// (a surf config still needs its Model; see Env.Config). "nocontention" is
// surf with link sharing off; "emu" is smpirun's spelling of "openmpi".
func backendConfig(name string, plat *platform.Platform) (string, smpi.Config, error) {
	switch name = normName(name); name {
	case "surf", "nocontention":
		return name, smpi.Config{Platform: plat, Backend: smpi.BackendSurf, NoContention: name == "nocontention"}, nil
	case "openmpi", "emu":
		return "openmpi", smpi.Config{Platform: plat, Backend: smpi.BackendEmu}, nil
	case "mpich2":
		return name, smpi.Config{Platform: plat, Backend: smpi.BackendEmu, Impl: emu.MPICH2()}, nil
	}
	return "", smpi.Config{}, fmt.Errorf("unknown backend %q (want surf, nocontention, openmpi, mpich2)", name)
}

// Config turns a back-end name and — for surf and nocontention — a model
// name into the smpi.Config a run on plat starts from: the one config
// builder behind the campaign grid and smpirun.
func (e *Env) Config(plat *platform.Platform, backend, model string) (smpi.Config, error) {
	_, cfg, err := backendConfig(backend, plat)
	if err != nil || cfg.Backend != smpi.BackendSurf {
		return cfg, err
	}
	_, pick, err := lookup("model", models, model)
	if err != nil {
		return cfg, err
	}
	cfg.Model = pick(e)
	return cfg, nil
}

// Place pins cfg's ranks to hosts under a placement policy (see package
// placement); the empty policy keeps the smpi default layout. Seed only
// matters to "random".
func Place(cfg *smpi.Config, policy string, seed uint64) error {
	if policy == "" {
		return nil
	}
	hosts, err := placement.Generate(policy, cfg.Platform, cfg.Procs, seed)
	if err != nil {
		return err
	}
	cfg.Hosts = hosts
	return nil
}

// simRun is what differs between kinds of simulation job: it runs the
// simulation under the job's final config and reports what the kind
// reports — its SimulatedTime, its Values keys, its Payload.
type simRun func(cfg smpi.Config) (*campaign.Outcome, error)

// simJob is the one constructor that wraps a simulation as a campaign job.
// The job's derived seed becomes cfg.Seed and drives its placement (so a
// random mapping is a pure function of campaign seed and job ID, and sweeps
// stay bit-identical at any worker count); a Stats sink on cfg is flattened
// into the outcome once the run is over. cfg.Procs must be set.
func simJob(id string, tags map[string]string, cfg smpi.Config, policy string, run simRun) campaign.Job {
	return campaign.Job{ID: id, Tags: tags, Run: func(ctx *campaign.Ctx) (*campaign.Outcome, error) {
		cfg.Seed = ctx.Seed
		if err := Place(&cfg, policy, ctx.Seed); err != nil {
			return nil, err
		}
		out, err := run(cfg)
		if out != nil && cfg.Stats != nil {
			out.Stats = obs.NonZero(cfg.Stats.Flat())
		}
		return out, err
	}}
}

// reportRun runs app and reports the run's simulated time, the values
// picked off its report, and the report itself as payload.
func reportRun(app func(*smpi.Rank), values func(*smpi.Report) map[string]float64) simRun {
	return func(cfg smpi.Config) (*campaign.Outcome, error) {
		rep, err := smpi.Run(cfg, app)
		if err != nil {
			return nil, err
		}
		return &campaign.Outcome{SimulatedTime: rep.SimulatedTime, Values: values(rep), Payload: rep}, nil
	}
}

// pingPongRun runs the SKaMPI ping-pong over sizes (nil means the default
// sweep) between the job's first two placed ranks — the platform's first
// two hosts when nothing pinned them — and lets report shape the outcome
// from the samples, which also travel as its payload.
func pingPongRun(sizes []int64, report func([]calibrate.Sample) *campaign.Outcome) simRun {
	return func(cfg smpi.Config) (*campaign.Outcome, error) {
		a, b := cfg.Platform.HostByID(0), cfg.Platform.HostByID(1)
		if len(cfg.Hosts) >= 2 {
			a, b = cfg.Hosts[0], cfg.Hosts[1]
		}
		samples, err := skampi.PingPong(skampi.PingPongConfig{Base: cfg, A: a, B: b, Sizes: sizes})
		if err != nil {
			return nil, err
		}
		out := report(samples)
		out.Payload = samples
		return out, nil
	}
}

// app is one built-in application that takes a per-rank payload.
type app struct {
	// body is what one rank does; chunk is the per-rank payload in bytes.
	// Bodies that only time a transfer take their buffers from
	// Rank.SharedMalloc: nobody reads the payload, so it is folded and the
	// simulator moves none of it.
	body func(r *smpi.Rank, c *smpi.Comm, chunk int64)
	// procs is the rank count the app fixes; 0 means any.
	procs int
	// barrier makes a stand-alone run (AppRank) enter body through a
	// barrier, as the timing harness always does; the point-to-point apps
	// order themselves by their messages.
	barrier bool
	// check, when set, rejects payloads the app cannot run with.
	check func(context string, chunk int64) error
	// skampi makes the campaign grid measure the app with the SKaMPI driver
	// (package skampi: best of three barrier-separated round trips, halved)
	// instead of timing body once.
	skampi bool
}

// apps is the one table of application names: smpirun's -app values and
// the campaign grid's ops are its keys.
var apps = map[string]app{
	// One binomial-tree scatter of chunk bytes per rank.
	"scatter": {barrier: true, body: func(r *smpi.Rank, c *smpi.Comm, chunk int64) {
		var sendbuf []byte
		if r.Rank() == 0 {
			sendbuf = r.SharedMalloc("scatter-send", r.Size()*int(chunk))
		}
		recvbuf := r.SharedMalloc("scatter-recv", int(chunk))
		c.Scatter(r, sendbuf, recvbuf, 0)
	}},
	// One pairwise all-to-all with chunk bytes per pair.
	"alltoall": {barrier: true, body: func(r *smpi.Rank, c *smpi.Comm, chunk int64) {
		sendbuf := r.SharedMalloc("alltoall-send", r.Size()*int(chunk))
		recvbuf := r.SharedMalloc("alltoall-recv", r.Size()*int(chunk))
		c.Alltoall(r, sendbuf, recvbuf)
	}},
	// One broadcast of chunk bytes from rank 0.
	"bcast": {barrier: true, body: func(r *smpi.Rank, c *smpi.Comm, chunk int64) {
		c.Bcast(r, r.SharedMalloc("bcast", int(chunk)), 0)
	}},
	// One allreduce of chunk bytes (float64 sums). A reduction combines
	// real bytes, so its buffers stay private.
	"allreduce": {barrier: true, check: checkFloat64Payload, body: func(r *smpi.Rank, c *smpi.Comm, chunk int64) {
		sendbuf := make([]byte, chunk)
		recvbuf := make([]byte, chunk)
		c.Allreduce(r, sendbuf, recvbuf, smpi.Float64, smpi.OpSum)
	}},
	// One token of chunk bytes passed once around the ring of ranks.
	"ring": {body: func(r *smpi.Rank, c *smpi.Comm, chunk int64) {
		buf := r.SharedMalloc("buf", int(chunk))
		next := (r.Rank() + 1) % r.Size()
		prev := (r.Rank() - 1 + r.Size()) % r.Size()
		if r.Rank() == 0 {
			r.Send(c, buf, next, 0)
			r.Recv(c, buf, prev, 0)
		} else {
			r.Recv(c, buf, prev, 0)
			r.Send(c, buf, next, 0)
		}
	}},
	// One round trip of chunk bytes between two ranks.
	"pingpong": {procs: 2, skampi: true, body: func(r *smpi.Rank, c *smpi.Comm, chunk int64) {
		buf := r.SharedMalloc("buf", int(chunk))
		peer := 1 - r.Rank()
		if r.Rank() == 0 {
			r.Send(c, buf, peer, 0)
			r.Recv(c, buf, peer, 0)
		} else {
			r.Recv(c, buf, peer, 0)
			r.Send(c, buf, peer, 0)
		}
	}},
}

// checkFloat64Payload rejects payloads the float64-sum collectives
// (allreduce) cannot slice into elements; context prefixes the error.
func checkFloat64Payload(context string, size int64) error {
	if size%8 != 0 {
		return fmt.Errorf("%s: payload %d not a multiple of the float64 size", context, size)
	}
	return nil
}

// AppNames lists the built-in applications that take a per-rank payload,
// sorted: the campaign grid's ops and (with dt and ep) smpirun's -app values.
func AppNames() []string { return slices.Sorted(maps.Keys(apps)) }

// AppRank resolves a built-in application to the rank function a launcher
// hands to smpi.Run, and the rank count the app fixes (0 means any).
func AppRank(name string, chunk int64) (rank func(*smpi.Rank), procs int, err error) {
	name, a, err := lookup("app", apps, name)
	if err == nil && a.check != nil {
		err = a.check(name, chunk)
	}
	if err != nil {
		return nil, 0, err
	}
	return func(r *smpi.Rank) {
		c := r.Comm()
		if a.barrier {
			c.Barrier(r)
		}
		a.body(r, c, chunk)
	}, a.procs, nil
}

// collectiveRun measures a collective operation: per-rank completion times
// (relative to the synchronized start), the overall completion time, and
// the wall-clock duration of the simulation itself.
type collectiveRun struct {
	PerRank []float64
	Total   float64
	Wall    time.Duration
}

// measureCollective is the one timing harness: every rank synchronizes on a
// barrier, runs the app's body, and records its completion relative to the
// barrier exit. Buffer allocation inside the body is host-side work and does
// not advance simulated time. The outcome carries the overall completion as
// SimulatedTime, one rank_<i> value per rank, and the *collectiveRun.
func measureCollective(a app, chunk int64) simRun {
	return func(cfg smpi.Config) (*campaign.Outcome, error) {
		out := &collectiveRun{PerRank: make([]float64, cfg.Procs)}
		rep, err := smpi.Run(cfg, func(r *smpi.Rank) {
			c := r.Comm()
			c.Barrier(r)
			start := r.Now()
			a.body(r, c, chunk)
			out.PerRank[r.Rank()] = float64(r.Now() - start)
		})
		if err != nil {
			return nil, err
		}
		out.Wall = rep.WallTime
		vals := make(map[string]float64, cfg.Procs)
		for i, t := range out.PerRank {
			out.Total = max(out.Total, t)
			vals[fmt.Sprintf("rank_%d", i)] = t
		}
		return &campaign.Outcome{SimulatedTime: core.Time(out.Total), Values: vals, Payload: out}, nil
	}
}
