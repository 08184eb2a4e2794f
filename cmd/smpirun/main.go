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
	"os"
	"strings"

	"smpigo/internal/core"
	"smpigo/internal/dynamics"
	"smpigo/internal/experiments"
	"smpigo/internal/nas"
	"smpigo/internal/obs"
	"smpigo/internal/placement"
	"smpigo/internal/platform"
	"smpigo/internal/replay"
	"smpigo/internal/smpi"
	"smpigo/internal/surf"
	"smpigo/internal/topology"
	"smpigo/internal/trace"
)

func main() {
	var (
		appName   = flag.String("app", "pingpong", "application: pingpong, ring, scatter, alltoall, dt, ep")
		np        = flag.Int("np", 2, "number of MPI processes (ignored by dt, which sets it from -class)")
		platName  = flag.String("platform", "griffon", "target platform: griffon, gdx, a topology preset (fattree16, fattree64, torus16, torus64, dragonfly72), a topology shape (fattree:4x4:1x4 torus:4x4x4 dragonfly:9x4x2), or a platform XML file")
		backend   = flag.String("backend", "surf", "timing backend: surf (analytical SMPI) or emu (packet-level testbed)")
		modelName = flag.String("model", "piecewise", "surf model: ideal, default, bestfit, piecewise")
		noCont    = flag.Bool("no-contention", false, "disable link contention (surf backend)")
		chunk     = flag.String("chunk", "4MiB", "per-rank payload for scatter/alltoall/pingpong")
		graph     = flag.String("graph", "WH", "DT graph: WH, BH, SH")
		class     = flag.String("class", "S", "NPB class: S, W, A, B, C")
		ratio     = flag.Float64("ratio", 1.0, "EP sampling ratio (0,1]")
		fold      = flag.Bool("fold", false, "DT: use RAM folding (SMPI_SHARED_MALLOC)")
		placeArg  = flag.String("placement", "", "rank placement policy: block, rr, random (empty = default layout)")
		collArg   = flag.String("collectives", "", "collective algorithms: default, auto (topology-keyed), or overrides like bcast=ring,allreduce=auto")
		seed      = flag.Uint64("seed", 0, "deterministic seed (per-rank RNGs, random placement)")
		traceOut  = flag.String("trace", "", "record a point-to-point trace to this file (off-line simulation input)")
		replayIn  = flag.String("replay", "", "replay a recorded trace instead of running an app")
		statsOn   = flag.Bool("stats", false, "print kernel counters and the link hot-spot report after the run")
		timeline  = flag.String("timeline", "", "write a per-link/per-host utilization timeline (JSON) to this file")
		tlBucket  = flag.String("timeline-bucket", "1ms", "timeline bucket width (simulated time)")
		dynArg    = flag.String("dynamics", "", "platform event schedule: inline grammar (\"@2ms link a-* scale 0.5; ...\"), inline JSON, or a file; \"none\" disables")
		solverW   = flag.Int("solver-workers", 0, "LMM solver worker pool (0 or 1 = serial, -1 = GOMAXPROCS); results are bit-identical at any setting")
		rateTol   = flag.Float64("rate-tolerance", 0, "bounded-staleness solver tolerance eps in [0,1); 0 = exact (flows whose rate would move by less than eps keep their stale rate)")
	)
	flag.Parse()
	if err := run(*appName, *np, *platName, *backend, *modelName, *noCont, *chunk, *graph, *class, *ratio, *fold, *placeArg, *collArg, *seed, *traceOut, *replayIn, *statsOn, *timeline, *tlBucket, *dynArg, *solverW, *rateTol); err != nil {
		fmt.Fprintln(os.Stderr, "smpirun:", err)
		os.Exit(1)
	}
}

func loadPlatform(name string) (*platform.Platform, error) {
	switch name {
	case "griffon":
		return platform.Griffon().Build()
	case "gdx":
		return platform.Gdx().Build()
	}
	spec, topoErr := topology.ParseSpec(name)
	if topoErr == nil {
		return spec.Build()
	}
	if strings.Contains(name, ":") {
		// The topology shape grammar, just malformed: surface the parse
		// diagnostic rather than a pointless file-open failure.
		return nil, topoErr
	}
	f, err := os.Open(name)
	if err != nil {
		return nil, fmt.Errorf("platform %q is neither a known name nor a readable file (%v; %v)", name, topoErr, err)
	}
	defer f.Close()
	specs, err := platform.ReadXML(f)
	if err != nil {
		return nil, err
	}
	return specs[0].Build()
}

func pickModel(name string) (surf.NetModel, error) {
	if name == "ideal" {
		return surf.Ideal(), nil
	}
	env, err := experiments.NewEnv()
	if err != nil {
		return surf.NetModel{}, fmt.Errorf("calibration: %w", err)
	}
	switch name {
	case "default":
		return env.Default, nil
	case "bestfit":
		return env.BestFit, nil
	case "piecewise":
		return env.Piecewise, nil
	}
	return surf.NetModel{}, fmt.Errorf("unknown model %q", name)
}

func run(appName string, np int, platName, backend, modelName string, noCont bool,
	chunkStr, graph, class string, ratio float64, fold bool,
	placeArg, collArg string, seed uint64, traceOut, replayIn string,
	statsOn bool, timelineOut, tlBucket, dynArg string, solverWorkers int, rateTol float64) error {
	plat, err := loadPlatform(platName)
	if err != nil {
		return err
	}
	cfg := smpi.Config{Procs: np, Platform: plat, NoContention: noCont, Seed: seed,
		SolverWorkers: solverWorkers, RateTolerance: rateTol}
	if dynArg != "" {
		sched, err := dynamics.Load(dynArg)
		if err != nil {
			return fmt.Errorf("bad -dynamics: %w", err)
		}
		cfg.Dynamics = sched
		if sched != nil {
			fmt.Printf("dynamics           : %d platform events\n", len(sched.Events))
		}
	}

	// Observability is opt-in: without -stats/-timeline the simulation runs
	// with every instrumentation hook compiled down to a nil check.
	var st *obs.Stats
	var observer *obs.Observer
	var tl *obs.Timeline
	if statsOn || timelineOut != "" {
		st = &obs.Stats{}
		cfg.Stats = st
		observer = obs.NewObserver(plat)
		cfg.Usage = observer
		if timelineOut != "" {
			width, err := core.ParseDuration(tlBucket)
			if err != nil {
				return fmt.Errorf("bad -timeline-bucket %q: %v", tlBucket, err)
			}
			if width <= 0 {
				return fmt.Errorf("bad -timeline-bucket %q: width must be positive", tlBucket)
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
		if statsOn {
			fmt.Printf("--- kernel counters ---\n%s", st.Report())
			fmt.Printf("--- link hot spots ---\n%s", observer.HotSpots(10))
		}
		if tl != nil {
			f, err := os.Create(timelineOut)
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
			fmt.Printf("timeline written   : %s\n", timelineOut)
		}
		return nil
	}
	if cfg.Algorithms, err = smpi.ParseAlgorithms(collArg); err != nil {
		return err
	}
	switch backend {
	case "surf":
		cfg.Backend = smpi.BackendSurf
		if cfg.Model, err = pickModel(modelName); err != nil {
			return err
		}
	case "emu":
		cfg.Backend = smpi.BackendEmu
	default:
		return fmt.Errorf("unknown backend %q", backend)
	}
	chunk, err := core.ParseBytes(chunkStr)
	if err != nil {
		return err
	}

	var app func(*smpi.Rank)
	switch appName {
	case "pingpong":
		cfg.Procs = 2
		app = func(r *smpi.Rank) {
			c := r.Comm()
			buf := r.SharedMalloc("buf", int(chunk))
			if r.Rank() == 0 {
				r.Send(c, buf, 1, 0)
				r.Recv(c, buf, 1, 0)
			} else {
				r.Recv(c, buf, 0, 0)
				r.Send(c, buf, 0, 0)
			}
		}
	case "ring":
		app = func(r *smpi.Rank) {
			c := r.Comm()
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
		}
	case "scatter":
		app = func(r *smpi.Rank) {
			c := r.Comm()
			var sendbuf []byte
			if r.Rank() == 0 {
				sendbuf = r.SharedMalloc("send", r.Size()*int(chunk))
			}
			recvbuf := r.SharedMalloc("recv", int(chunk))
			c.Barrier(r)
			c.Scatter(r, sendbuf, recvbuf, 0)
		}
	case "alltoall":
		app = func(r *smpi.Rank) {
			c := r.Comm()
			sendbuf := r.SharedMalloc("send", r.Size()*int(chunk))
			recvbuf := r.SharedMalloc("recv", r.Size()*int(chunk))
			c.Barrier(r)
			c.Alltoall(r, sendbuf, recvbuf)
		}
	case "dt":
		dcfg := nas.DTConfig{Graph: nas.DTGraph(graph), Class: nas.DTClass(class[0]), Fold: fold}
		procs, err := nas.DTProcs(dcfg.Graph, dcfg.Class)
		if err != nil {
			return err
		}
		cfg.Procs = procs
		app, _ = nas.DT(dcfg)
	case "ep":
		a, _ := nas.EP(nas.EPConfig{M: 20, Iterations: 64, SampleRatio: ratio})
		app = a
	default:
		return fmt.Errorf("unknown app %q", appName)
	}

	// applyPlacement pins ranks via the -placement policy; procs varies by
	// path (the app's rank count, or the replayed trace's).
	applyPlacement := func(procs int) error {
		if placeArg == "" {
			return nil
		}
		hosts, err := placement.Generate(placeArg, plat, procs, seed)
		if err != nil {
			return err
		}
		cfg.Hosts = hosts
		return nil
	}
	if collArg != "" {
		fmt.Printf("collectives        : %s\n", cfg.Algorithms.Resolve(plat.Topo).Summary())
	}

	if replayIn != "" {
		f, err := os.Open(replayIn)
		if err != nil {
			return err
		}
		tr, err := trace.Read(f)
		f.Close()
		if err != nil {
			return err
		}
		if err := applyPlacement(tr.Procs); err != nil {
			return err
		}
		rep, err := replay.Run(tr, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("replayed trace     : %s (np=%d, %d events) on %s [%s backend]\n",
			replayIn, tr.Procs, tr.Events(), plat.Name, backend)
		fmt.Printf("simulated time     : %v\n", rep.SimulatedTime)
		fmt.Printf("simulation wall    : %v\n", rep.WallTime)
		return finishObs()
	}
	if err := applyPlacement(cfg.Procs); err != nil {
		return err
	}
	var rec *trace.Trace
	if traceOut != "" {
		rec = trace.New(cfg.Procs)
		cfg.Tracer = rec
	}

	rep, err := smpi.Run(cfg, app)
	if err != nil {
		return err
	}
	if rec != nil {
		f, err := os.Create(traceOut)
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
		fmt.Printf("trace written      : %s (%d events)\n", traceOut, rec.Events())
	}
	fmt.Printf("application        : %s (np=%d) on %s [%s backend]\n", appName, cfg.Procs, plat.Name, backend)
	if placeArg != "" {
		fmt.Printf("placement          : %s (rank 0 on %s)\n", placeArg, cfg.Hosts[0].Name())
	}
	fmt.Printf("simulated time     : %v\n", rep.SimulatedTime)
	fmt.Printf("simulation wall    : %v\n", rep.WallTime)
	fmt.Printf("messages / bytes   : %d / %s\n", rep.Messages, core.FormatBytes(rep.BytesOnWire))
	if rep.MaxPeakRSS > 0 {
		fmt.Printf("max RSS per rank   : %.1f MiB\n", rep.MaxPeakRSS/float64(core.MiB))
	}
	if rep.BurstsExecuted+rep.BurstsReplayed > 0 {
		fmt.Printf("bursts exec/replay : %d / %d\n", rep.BurstsExecuted, rep.BurstsReplayed)
	}
	return finishObs()
}
