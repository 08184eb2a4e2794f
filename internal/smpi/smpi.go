package smpi

import (
	"fmt"
	"time"

	"smpigo/internal/core"
	"smpigo/internal/dynamics"
	"smpigo/internal/emu"
	"smpigo/internal/obs"
	"smpigo/internal/platform"
	"smpigo/internal/sampling"
	"smpigo/internal/simix"
	"smpigo/internal/surf"
	"smpigo/internal/trace"
)

// Backend selects the timing model for a simulated run.
type Backend int

const (
	// BackendSurf uses the fast analytical models (an SMPI simulation).
	BackendSurf Backend = iota
	// BackendEmu uses the packet-level emulator (a stand-in "real run").
	BackendEmu
)

// eagerThreshold is the size (bytes) at which sends switch from eager
// (buffered) to rendezvous (synchronous) semantics.
const eagerThreshold = 64 * core.KiB

// Config parameterizes a simulated MPI job.
type Config struct {
	// Procs is the number of MPI ranks.
	Procs int
	// Platform is the target platform; required.
	Platform *platform.Platform
	// Hosts optionally pins rank i to Hosts[i]; by default ranks are laid
	// out round-robin over Platform.Hosts().
	Hosts []*platform.Host
	// Backend selects the timing model (default BackendSurf).
	Backend Backend
	// Model is the point-to-point model for BackendSurf; defaults to
	// surf.Ideal() if zero.
	Model surf.NetModel
	// NoContention disables link sharing in BackendSurf, emulating the
	// contention-blind simulators the paper compares against.
	NoContention bool
	// Impl is the emulated MPI implementation for BackendEmu; defaults to
	// emu.OpenMPI().
	Impl emu.MPIImpl
	// Seed seeds the per-rank deterministic RNGs.
	Seed uint64
	// Algorithms selects collective implementation variants.
	Algorithms Algorithms
	// Tracer, when non-nil, records every compute burst and point-to-point
	// operation in program order, producing the input of the off-line
	// replayer (package replay). Collectives are traced as the
	// point-to-point messages they decompose into.
	Tracer *trace.Trace
	// Stats, when non-nil, receives the kernel and model counters of the run
	// (see internal/obs). Leaving it nil — the default — keeps every hook a
	// nil check; the simulated outcome is identical either way.
	Stats *obs.Stats
	// Usage, when non-nil, receives the drained byte/flop segments of the
	// surf models (per-link utilization accounting; see obs.Observer and
	// obs.Timeline). Ignored on BackendEmu, which has no drain stream.
	Usage surf.UsageRecorder
	// Dynamics, when non-nil, is a deterministic schedule of platform events
	// (link degradation/restoration, host slowdown, background-traffic
	// injection) armed on the kernel before the ranks start. Link and flow
	// events require BackendSurf with contention enabled; events dated after
	// the last rank exits never fire.
	Dynamics *dynamics.Schedule
}

func (cfg *Config) fillDefaults() error {
	if cfg.Procs <= 0 {
		return fmt.Errorf("smpi: Procs must be positive, got %d", cfg.Procs)
	}
	if cfg.Platform == nil {
		return fmt.Errorf("smpi: Platform is required")
	}
	if len(cfg.Platform.Hosts()) == 0 {
		return fmt.Errorf("smpi: platform has no hosts")
	}
	if cfg.Model.Segments == nil {
		cfg.Model = surf.Ideal()
	}
	if cfg.Impl.Name == "" {
		cfg.Impl = emu.OpenMPI()
	}
	// Check the collective algorithm names, then resolve "auto" against the
	// platform's interconnect; fields left empty dispatch to the defaults.
	algos, err := cfg.Algorithms.checked()
	cfg.Algorithms = algos.Resolve(cfg.Platform.Topo)
	return err
}

// Report summarizes a completed simulation.
type Report struct {
	// SimulatedTime is the simulated date at which the last rank finished
	// (the application's predicted execution time).
	SimulatedTime core.Time
	// WallTime is the real time the simulation took — the "simulation
	// time" axis of the paper's Figures 17 and 18.
	WallTime time.Duration
	// MaxPeakRSS is the maximum accounted per-rank footprint in bytes
	// (Figure 16's metric). Only allocations made through Rank.Malloc and
	// Rank.SharedMalloc are accounted.
	MaxPeakRSS float64
	// BytesOnWire and Messages count point-to-point traffic.
	BytesOnWire int64
	Messages    int64
	// BurstsExecuted and BurstsReplayed count sampled CPU bursts that ran
	// for real vs. were replaced by a mean delay.
	BurstsExecuted int64
	BurstsReplayed int64
}

// world is the runtime state of one simulated MPI job.
type world struct {
	cfg    Config
	kernel *simix.Kernel
	cpu    *surf.CPU
	snet   *surf.Network
	enet   *emu.Net
	reg    *sampling.Registry

	ranks     []*Rank
	world     *Comm
	mailboxes []mailbox // indexed by receiving rank

	bytesOnWire int64
	messages    int64

	// The message path's recycled objects. They belong to this run alone:
	// nothing here is shared with, or survives into, another world.
	freeEnvs []*envelope
	freeReqs []*Request // only requests that never reached the application
	// routeBuf is where transfer resolves each route; StartFlow copies the
	// links out.
	routeBuf []*platform.Link
}

// Rank is the per-process handle passed to application functions: it
// identifies the calling rank and carries every MPI-ish operation.
type Rank struct {
	w    *world
	proc *simix.Proc
	rank int
	host *platform.Host
	rng  *core.RNG

	anyScratch []*simix.Future // WaitAny's view of its requests
}

// Run simulates app on cfg.Procs ranks and returns the report.
func Run(cfg Config, app func(*Rank)) (*Report, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	w := &world{
		cfg:       cfg,
		kernel:    simix.New(),
		mailboxes: make([]mailbox, cfg.Procs),
		routeBuf:  make([]*platform.Link, 0, 8),
	}
	w.cpu = surf.NewCPU(w.kernel)
	w.kernel.AddModel(w.cpu)
	switch cfg.Backend {
	case BackendSurf:
		w.snet = surf.NewNetwork(w.kernel, cfg.Model)
		w.snet.Contention = !cfg.NoContention
		w.kernel.AddModel(w.snet)
	case BackendEmu:
		w.enet = emu.NewNet(w.kernel, cfg.Platform, cfg.Impl)
		w.kernel.AddModel(w.enet)
	default:
		return nil, fmt.Errorf("smpi: unknown backend %d", cfg.Backend)
	}
	if st := cfg.Stats; st != nil {
		w.kernel.Stats = &st.Kernel
		w.cpu.Instrument(&st.CPU, &st.CPULMM, &st.CPUHeap, cfg.Usage)
		if w.snet != nil {
			w.snet.Instrument(&st.Net, &st.NetLMM, &st.NetHeap, cfg.Usage)
		}
		if w.enet != nil {
			w.enet.InstrumentHeap(&st.NetHeap)
		}
	} else if cfg.Usage != nil {
		w.cpu.Instrument(nil, nil, nil, cfg.Usage)
		if w.snet != nil {
			w.snet.Instrument(nil, nil, nil, cfg.Usage)
		}
	}
	if cfg.Dynamics != nil {
		if err := cfg.Dynamics.Arm(w.kernel, cfg.Platform, w.snet, w.cpu); err != nil {
			return nil, fmt.Errorf("smpi: dynamics: %w", err)
		}
	}
	w.reg = sampling.NewRegistry(cfg.Procs)
	defer w.reg.Release()

	hosts := cfg.Hosts
	if hosts == nil {
		all := cfg.Platform.Hosts()
		hosts = make([]*platform.Host, cfg.Procs)
		for i := range hosts {
			hosts[i] = all[i%len(all)]
		}
	} else if err := validateHosts(hosts, cfg.Procs, cfg.Platform); err != nil {
		return nil, err
	}

	w.world = &Comm{w: w}

	seedRNG := core.NewRNG(cfg.Seed + 0x5eed)
	for i := 0; i < cfg.Procs; i++ {
		r := &Rank{
			w:    w,
			rank: i,
			host: hosts[i],
			rng:  seedRNG.Split(),
		}
		w.ranks = append(w.ranks, r)
		w.kernel.Spawn(fmt.Sprintf("rank-%d", i), func(p *simix.Proc) {
			r.proc = p
			app(r)
		})
	}

	wallStart := time.Now()
	if err := w.kernel.Run(); err != nil {
		return nil, err
	}
	return &Report{
		SimulatedTime:  w.kernel.Now(),
		WallTime:       time.Since(wallStart),
		MaxPeakRSS:     w.reg.MaxPeakRSS(),
		BytesOnWire:    w.bytesOnWire,
		Messages:       w.messages,
		BurstsExecuted: w.reg.Executed(),
		BurstsReplayed: w.reg.Replayed(),
	}, nil
}

// validateHosts checks an explicit Config.Hosts pinning against the
// platform: one host per rank, every entry a live host of this platform.
// Each failure mode names the offending rank, so a placement bug surfaces
// as a diagnosable error instead of an index panic or a rank silently
// landing on a same-named host of a different platform instance.
func validateHosts(hosts []*platform.Host, procs int, plat *platform.Platform) error {
	if len(hosts) != procs {
		missing := len(hosts) // first rank without a host when too short
		if len(hosts) > procs {
			return fmt.Errorf("smpi: Config.Hosts pins %d ranks but Procs is %d (hosts[%d:] are unused; truncate the placement or raise Procs)",
				len(hosts), procs, procs)
		}
		return fmt.Errorf("smpi: Config.Hosts pins only %d ranks but Procs is %d (rank %d has no host)",
			len(hosts), procs, missing)
	}
	for i, h := range hosts {
		if h == nil {
			return fmt.Errorf("smpi: Config.Hosts[%d] is nil: rank %d has no host", i, i)
		}
		if plat.Host(h.Name()) != h {
			return fmt.Errorf("smpi: rank %d pinned to host %q which is not a host of platform %q",
				i, h.Name(), plat.Name)
		}
	}
	return nil
}

// transfer starts moving env's payload between its hosts on the active
// backend; env.wire is fulfilled at delivery.
func (w *world) transfer(env *envelope) {
	size := int64(len(env.data))
	w.bytesOnWire += size
	w.messages++
	if w.snet != nil {
		if w.cfg.Stats != nil {
			w.cfg.Stats.Routes++
		}
		route := w.cfg.Platform.RouteInto(w.routeBuf[:0], env.srcHost, env.dstHost)
		w.routeBuf = route.Links
		w.snet.StartFlow(route, size, &env.wire)
	} else {
		if w.cfg.Stats != nil {
			w.cfg.Stats.Routes += 2 // forward and return routes per transfer
		}
		w.enet.Transfer(env.srcHost, env.dstHost, size, &env.wire)
	}
}

// --- Rank basics ---

// Rank returns the caller's rank in the world communicator.
func (r *Rank) Rank() int { return r.rank }

// Size returns the number of ranks in the world communicator.
func (r *Rank) Size() int { return len(r.w.ranks) }

// Comm returns the world communicator (MPI_COMM_WORLD).
func (r *Rank) Comm() *Comm { return r.w.world }

// Now returns the current simulated time.
func (r *Rank) Now() core.Time { return r.proc.Now() }

// RNG returns this rank's deterministic random stream.
func (r *Rank) RNG() *core.RNG { return r.rng }

// Compute charges flops of work on this rank's host and blocks until the
// simulated work completes.
func (r *Rank) Compute(flops float64) {
	if tr := r.w.cfg.Tracer; tr != nil {
		tr.RecordCompute(r.rank, core.Duration(flops/r.host.Speed))
	}
	r.proc.Wait(r.w.cpu.Execute(r.host, flops))
}

// Elapse charges a fixed simulated delay of compute on this rank's host.
func (r *Rank) Elapse(d core.Duration) {
	if d <= 0 {
		return
	}
	if tr := r.w.cfg.Tracer; tr != nil {
		tr.RecordCompute(r.rank, d)
	}
	r.proc.Wait(r.w.cpu.Delay(r.host, d))
}
