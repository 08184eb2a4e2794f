// Command smpirun runs a built-in MPI application in simulation, the
// counterpart of SMPI's smpirun launcher: it picks a target platform, a
// backend (analytical SMPI model or packet-level testbed emulation), a
// point-to-point model, and prints the predicted execution time and the
// simulation statistics.
//
// Examples:
//
//	smpirun -app pingpong -np 2 -platform griffon -model piecewise
//	smpirun -app scatter -np 16 -chunk 4MiB -backend emu
//	smpirun -app alltoall -np 64 -platform torus64
//	smpirun -app pingpong -platform fattree:4x4:1x4
//	smpirun -app alltoall -np 64 -platform fattree64 -placement rr -collectives auto
//	smpirun -app dt -graph BH -class A
//	smpirun -app ep -np 4 -ratio 0.25
//
// -placement lays ranks out over the platform (block, rr, random — see
// internal/placement); -collectives selects collective algorithm variants,
// with "auto" keying them on the platform's interconnect family.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"smpigo/internal/core"
	"smpigo/internal/dynamics"
	"smpigo/internal/experiments"
	"smpigo/internal/nas"
	"smpigo/internal/obs"
	"smpigo/internal/platform"
	"smpigo/internal/replay"
	"smpigo/internal/smpi"
	"smpigo/internal/topology"
	"smpigo/internal/trace"
)

// options holds the command-line flags.
type options struct {
	app            string
	np             int
	platform       string
	backend        string
	model          string
	chunk          string
	graph          string
	class          string
	ratio          float64
	fold           bool
	placement      string
	collectives    string
	seed           uint64
	traceOut       string
	replayIn       string
	stats          bool
	timeline       string
	timelineBucket string
	dynamics       string
}

// bindFlags registers every flag on fs, storing into o.
func bindFlags(fs *flag.FlagSet, o *options) {
	fs.StringVar(&o.app, "app", "pingpong", "application: "+strings.Join(appNames(), ", "))
	fs.IntVar(&o.np, "np", 2, "number of MPI processes (ignored by dt, which sets it from -class)")
	fs.StringVar(&o.platform, "platform", "griffon", "target platform: griffon, gdx, a topology preset ("+strings.Join(topology.PresetNames(), ", ")+"), a topology shape (fattree:4x4:1x4 torus:4x4x4 dragonfly:9x4x2), or a platform XML file")
	fs.StringVar(&o.backend, "backend", "surf", "timing backend: surf (analytical SMPI), nocontention (surf with link sharing off), or the packet-level testbed as openmpi (also spelled emu) or mpich2")
	fs.StringVar(&o.model, "model", "piecewise", "surf model: ideal, default, bestfit, piecewise")
	fs.StringVar(&o.chunk, "chunk", "4MiB", "per-rank payload for scatter/alltoall/pingpong")
	fs.StringVar(&o.graph, "graph", "WH", "DT graph: WH, BH, SH")
	fs.StringVar(&o.class, "class", "S", "NPB class: S, W, A, B, C")
	fs.Float64Var(&o.ratio, "ratio", 1.0, "EP sampling ratio (0,1]")
	fs.BoolVar(&o.fold, "fold", false, "DT: use RAM folding (SMPI_SHARED_MALLOC)")
	fs.StringVar(&o.placement, "placement", "", "rank placement policy: block, rr, random (empty = default layout)")
	fs.StringVar(&o.collectives, "collectives", "", "collective algorithms: default, auto (topology-keyed), or overrides like bcast=ring,allreduce=auto from "+smpi.CollectivesUsage()+" (the first is the default)")
	fs.Uint64Var(&o.seed, "seed", 0, "deterministic seed (per-rank RNGs, random placement)")
	fs.StringVar(&o.traceOut, "trace", "", "record a point-to-point trace to this file (off-line simulation input)")
	fs.StringVar(&o.replayIn, "replay", "", "replay a recorded trace instead of running an app")
	fs.BoolVar(&o.stats, "stats", false, "print kernel counters and the link hot-spot report after the run")
	fs.StringVar(&o.timeline, "timeline", "", "write a per-link/per-host utilization timeline (JSON) to this file")
	fs.StringVar(&o.timelineBucket, "timeline-bucket", "1ms", "timeline bucket width (simulated time)")
	fs.StringVar(&o.dynamics, "dynamics", "", "platform event schedule: inline grammar (\"@2ms link a-* scale 0.5; ...\"), inline JSON, or a file; \"none\" disables")
}

func main() {
	var o options
	bindFlags(flag.CommandLine, &o)
	flag.Parse()
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "smpirun:", err)
		os.Exit(1)
	}
}

// loadPlatform resolves -platform: every name experiments.Env knows (the
// paper's clusters, topology presets and shapes), else a platform XML file.
func loadPlatform(env *experiments.Env, name string) (*platform.Platform, error) {
	plat, nameErr := env.Platform(name)
	if nameErr == nil || strings.Contains(name, ":") {
		// A colon means the topology shape grammar, just malformed: surface
		// the parse diagnostic rather than a pointless file-open failure.
		return plat, nameErr
	}
	f, err := os.Open(name)
	if err != nil {
		return nil, fmt.Errorf("%v, nor a readable file (%v)", nameErr, err)
	}
	defer f.Close()
	specs, err := platform.ReadXML(f)
	if err != nil {
		return nil, err
	}
	return specs[0].Build()
}

// appNames lists every -app value, sorted: the experiments app table plus
// the two NAS benchmarks, which take their own flags.
func appNames() []string {
	return slices.Sorted(slices.Values(append(experiments.AppNames(), "dt", "ep")))
}

// run executes the command, printing its report to w.
func run(o options, w io.Writer) error {
	if !(o.ratio > 0 && o.ratio <= 1) { // NaN fails both comparisons
		return fmt.Errorf("bad -ratio %v: want a sampling ratio in (0, 1]", o.ratio)
	}
	env, err := experiments.NewEnv()
	if err != nil {
		return fmt.Errorf("environment: %w", err)
	}
	plat, err := loadPlatform(env, o.platform)
	if err != nil {
		return err
	}
	cfg, err := env.Config(plat, o.backend, o.model)
	if err != nil {
		return err
	}
	cfg.Procs, cfg.Seed = o.np, o.seed
	if o.dynamics != "" {
		sched, err := dynamics.Load(o.dynamics)
		if err != nil {
			return fmt.Errorf("bad -dynamics: %w", err)
		}
		cfg.Dynamics = sched
		if sched != nil {
			fmt.Fprintf(w, "dynamics           : %d platform events\n", len(sched.Events))
		}
	}

	// Observability is opt-in: without -stats/-timeline the simulation runs
	// with every instrumentation hook compiled down to a nil check.
	var st *obs.Stats
	var observer *obs.Observer
	var tl *obs.Timeline
	if o.stats || o.timeline != "" {
		st = &obs.Stats{}
		cfg.Stats = st
		observer = obs.NewObserver(plat)
		cfg.Usage = observer
		if o.timeline != "" {
			width, err := core.ParseDuration(o.timelineBucket)
			if err != nil {
				return fmt.Errorf("bad -timeline-bucket %q: %v", o.timelineBucket, err)
			}
			if width <= 0 {
				return fmt.Errorf("bad -timeline-bucket %q: width must be positive", o.timelineBucket)
			}
			tl = obs.NewTimeline(plat, width)
			cfg.Usage = obs.Multi(observer, tl)
		}
	}
	// finishObs emits the reports after either the app or the replay path.
	finishObs := func() error {
		if st == nil {
			return nil
		}
		if o.stats {
			fmt.Fprintf(w, "--- kernel counters ---\n%s", st.Report())
			fmt.Fprintf(w, "--- link hot spots ---\n%s", observer.HotSpots(10))
		}
		if tl != nil {
			f, err := os.Create(o.timeline)
			if err != nil {
				return err
			}
			if err := tl.WriteJSON(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(w, "timeline written   : %s\n", o.timeline)
		}
		return nil
	}
	if cfg.Algorithms, err = smpi.ParseAlgorithms(o.collectives); err != nil {
		return err
	}
	chunk, err := core.ParseBytes(o.chunk)
	if err != nil {
		return err
	}

	// Like every name, -app, -graph and -class ignore case and padding.
	var app func(*smpi.Rank)
	name := strings.ToLower(strings.TrimSpace(o.app))
	switch name {
	case "dt":
		class := strings.ToUpper(strings.TrimSpace(o.class))
		if len(class) != 1 || !strings.Contains("SWABC", class) {
			return fmt.Errorf("bad -class %q: want S, W, A, B or C", o.class)
		}
		graph := nas.DTGraph(strings.ToUpper(strings.TrimSpace(o.graph)))
		dcfg := nas.DTConfig{Graph: graph, Class: nas.DTClass(class[0]), Fold: o.fold}
		if cfg.Procs, err = nas.DTProcs(dcfg.Graph, dcfg.Class); err != nil {
			return err
		}
		app, _ = nas.DT(dcfg)
	case "ep":
		app, _ = nas.EP(nas.EPConfig{M: 20, Iterations: 64, SampleRatio: o.ratio})
	default:
		// Everything else is a name in the experiments app table, shared
		// with the campaign grid's ops.
		if !slices.Contains(experiments.AppNames(), name) {
			return fmt.Errorf("unknown app %q (want %s)", o.app, strings.Join(appNames(), ", "))
		}
		var procs int
		if app, procs, err = experiments.AppRank(name, chunk); err != nil {
			return err
		}
		if procs != 0 {
			cfg.Procs = procs
		}
	}
	if o.collectives != "" {
		fmt.Fprintf(w, "collectives        : %s\n", cfg.Algorithms.Resolve(plat.Topo).Summary())
	}

	if o.replayIn != "" {
		f, err := os.Open(o.replayIn)
		if err != nil {
			return err
		}
		tr, err := trace.Read(f)
		f.Close()
		if err != nil {
			return err
		}
		// The replayed trace, not -np, says how many ranks to place.
		cfg.Procs = tr.Procs
		if err := experiments.Place(&cfg, o.placement, o.seed); err != nil {
			return err
		}
		rep, err := replay.Run(tr, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "replayed trace     : %s (np=%d, %d events) on %s [%s backend]\n",
			o.replayIn, tr.Procs, tr.Events(), plat.Name, o.backend)
		fmt.Fprintf(w, "simulated time     : %v\n", rep.SimulatedTime)
		fmt.Fprintf(w, "simulation wall    : %v\n", rep.WallTime)
		return finishObs()
	}
	if err := experiments.Place(&cfg, o.placement, o.seed); err != nil {
		return err
	}
	var rec *trace.Trace
	if o.traceOut != "" {
		rec = trace.New(cfg.Procs)
		cfg.Tracer = rec
	}

	rep, err := smpi.Run(cfg, app)
	if err != nil {
		return err
	}
	if rec != nil {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return err
		}
		if err := rec.Write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace written      : %s (%d events)\n", o.traceOut, rec.Events())
	}
	fmt.Fprintf(w, "application        : %s (np=%d) on %s [%s backend]\n", name, cfg.Procs, plat.Name, o.backend)
	if o.placement != "" {
		fmt.Fprintf(w, "placement          : %s (rank 0 on %s)\n", o.placement, cfg.Hosts[0].Name())
	}
	fmt.Fprintf(w, "simulated time     : %v\n", rep.SimulatedTime)
	fmt.Fprintf(w, "simulation wall    : %v\n", rep.WallTime)
	fmt.Fprintf(w, "messages / bytes   : %d / %s\n", rep.Messages, core.FormatBytes(rep.BytesOnWire))
	if rep.MaxPeakRSS > 0 {
		fmt.Fprintf(w, "max RSS per rank   : %.1f MiB\n", rep.MaxPeakRSS/float64(core.MiB))
	}
	if rep.BurstsExecuted+rep.BurstsReplayed > 0 {
		fmt.Fprintf(w, "bursts exec/replay : %d / %d\n", rep.BurstsExecuted, rep.BurstsReplayed)
	}
	return finishObs()
}
