// Command experiments regenerates the figures of the paper's evaluation
// (Section 7) and runs arbitrary scenario campaigns beyond them. Each
// figure's independent simulations fan out over a bounded worker pool;
// simulated results are bit-identical at any -parallel setting because every
// job's RNG seed derives from the campaign seed and the job's identity, not
// from scheduling order.
//
// Usage:
//
//	experiments [-fig all] [-fast] [-parallel N] [-seed S] [-json] [-pprof addr]
//	experiments campaign -op scatter -procs 4,8,16 -sizes 64KiB,1MiB,4MiB \
//	    [-models piecewise,bestfit] [-backends surf,openmpi] \
//	    [-platform griffon] [-topologies griffon,fattree64,torus64] \
//	    [-placements block,rr,random] [-collectives auto] \
//	    [-parallel N] [-seed S] [-json] [-stats] [-pprof addr]
//
// -fig topo compares ring vs tree collectives across interconnect shapes
// (flat cluster, fat-tree, torus, dragonfly); -fig placement sweeps rank
// placement against deterministic routing. The campaign -topologies flag
// crosses any sweep with a topology axis (presets or shape strings such as
// fattree:4x4:1x4, torus:4x4x4, dragonfly:9x4x2), -placements crosses it
// with a rank-placement axis (block, rr, random), and -collectives selects
// collective algorithms ("auto" keys them on the topology).
//
// Running with -fig all reproduces the whole campaign.
//
// Observability: campaign -stats attaches per-job kernel counters (see
// internal/obs) and prints the aggregate; -pprof addr serves net/http/pprof
// profiles plus a plain-text /debug/metrics dump of the Go runtime metrics
// while the sweep runs — the way to see where a long campaign spends its
// wall-clock without instrumenting anything.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"

	"smpigo/internal/campaign"
	"smpigo/internal/core"
	"smpigo/internal/experiments"
	"smpigo/internal/obs"
	"smpigo/internal/smpi"
)

func main() {
	args := os.Args[1:]
	var err error
	if len(args) > 0 && args[0] == "campaign" {
		err = runCampaign(args[1:])
	} else {
		err = runFigures(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func runFigures(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	fig := fs.String("fig", "all", "figure to regenerate: 3,4,5,7,8,9,11,12,15,16,17,18, topo (cross-topology collectives), placement (placement-vs-routing sweep), degraded (collective slowdown vs trunk degradation), or all")
	fast := fs.Bool("fast", false, "reduce payloads for quicker (shape-preserving) runs")
	parallel := fs.Int("parallel", 0, "worker-pool size for each figure's simulations (0 = GOMAXPROCS)")
	seed := fs.Uint64("seed", 0, "campaign seed; per-job seeds derive from it")
	jsonOut := fs.Bool("json", false, "emit the figure tables as JSON instead of aligned text")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof and /debug/metrics on this address (e.g. localhost:6060) while running")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (the \"campaign\" subcommand must come first: experiments campaign ...)", fs.Arg(0))
	}
	if err := startPprof(*pprofAddr); err != nil {
		return err
	}

	env, err := experiments.NewEnv()
	if err != nil {
		return err
	}
	env.Workers = *parallel
	env.Seed = *seed
	figures, err := selectFigures(experiments.Figures(env, *fast), *fig)
	if err != nil {
		return err
	}
	var tables []*experiments.Table
	for _, f := range figures {
		t, err := f.Run()
		if err != nil {
			return fmt.Errorf("figure %s: %w", f.ID, err)
		}
		tables = append(tables, t)
		if !*jsonOut {
			fmt.Println(t.String())
		}
	}
	if *jsonOut {
		return emitJSON(tables)
	}
	return nil
}

// selectFigures returns the figures the -fig value names, in list order:
// every one for "all", else those its comma-separated IDs name. An ID that
// names no figure is an error, raised before any figure runs.
func selectFigures(figures []experiments.Figure, spec string) ([]experiments.Figure, error) {
	if spec == "all" {
		return figures, nil
	}
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.ID
	}
	want := splitList(spec)
	for _, id := range want {
		if !slices.Contains(ids, id) {
			return nil, fmt.Errorf("unknown figure %q (want %s or all)", id, strings.Join(ids, ", "))
		}
	}
	var out []experiments.Figure
	for _, f := range figures {
		if slices.Contains(want, f.ID) {
			out = append(out, f)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no figure matches %q", spec)
	}
	return out, nil
}

func runCampaign(args []string) error {
	fs := flag.NewFlagSet("experiments campaign", flag.ExitOnError)
	op := fs.String("op", "scatter", "operation to sweep: "+strings.Join(experiments.AppNames(), ", "))
	procsArg := fs.String("procs", "16", "comma-separated process counts, e.g. 4,8,16,32")
	sizesArg := fs.String("sizes", "64KiB,1MiB,4MiB", "comma-separated message sizes, e.g. 64KiB,1MiB")
	modelsArg := fs.String("models", "piecewise", "comma-separated surf models: piecewise,bestfit,default,ideal")
	backendsArg := fs.String("backends", "surf", "comma-separated backends: surf,nocontention,openmpi,mpich2")
	platformArg := fs.String("platform", "griffon", "target platform: griffon, gdx, a topology preset (fattree16, fattree64, torus16, torus64, dragonfly72), or a topology shape (fattree:4x4:1x4 torus:4x4x4 dragonfly:9x4x2); ignored when -topologies is set")
	topologiesArg := fs.String("topologies", "", "comma-separated topology axis: griffon,gdx, presets (fattree16,fattree64,torus16,torus64,dragonfly72), or shapes (fattree:4x4:1x4 torus:4x4x4 dragonfly:9x4x2)")
	placementsArg := fs.String("placements", "", "comma-separated rank-placement axis: block,rr,random (empty = default layout)")
	collectivesArg := fs.String("collectives", "", "collective algorithms for every job: default, auto (topology-keyed), or overrides like bcast=ring,allreduce=auto from "+smpi.CollectivesUsage()+" (the first is the default)")
	dynamicsArg := fs.String("dynamics", "", "comma-separated platform-event axis, each a dynamics schedule (\"none\" or \"@2ms link a-* scale 0.5; ...\"); schedules use ';' between events so they survive this comma-separated list")
	parallel := fs.Int("parallel", 0, "worker-pool size (0 = GOMAXPROCS)")
	shardArg := fs.String("shard", "", "run only shard i/n of the expanded grid (e.g. 0/2); shard summaries merge back to the unsharded fingerprint (smpigod /v1/campaigns/merge)")
	seed := fs.Uint64("seed", 0, "campaign seed; per-job seeds derive from it")
	jsonOut := fs.Bool("json", false, "emit the full campaign summary as JSON")
	statsOn := fs.Bool("stats", false, "collect kernel counters per job and print the campaign aggregate")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof and /debug/metrics on this address (e.g. localhost:6060) while running")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if err := startPprof(*pprofAddr); err != nil {
		return err
	}

	procs, err := parseInts(*procsArg)
	if err != nil {
		return fmt.Errorf("-procs: %w", err)
	}
	sizes, err := parseSizes(*sizesArg)
	if err != nil {
		return fmt.Errorf("-sizes: %w", err)
	}
	spec := experiments.GridSpec{
		Op:          *op,
		Procs:       procs,
		Sizes:       sizes,
		Models:      splitList(*modelsArg),
		Backends:    splitList(*backendsArg),
		Platform:    *platformArg,
		Topologies:  splitList(*topologiesArg),
		Placements:  splitList(*placementsArg),
		Collectives: *collectivesArg,
		Dynamics:    splitList(*dynamicsArg),
		Stats:       *statsOn,
	}
	if *shardArg != "" {
		spec.ShardIndex, spec.ShardCount, err = experiments.ParseShard(*shardArg)
		if err != nil {
			return fmt.Errorf("-shard: %w", err)
		}
	}

	// A bad axis value fails here, before anything is built or run.
	// The canonical form is what smpigod runs, so a spec fingerprints alike
	// on both front ends however its axes are ordered or spelled.
	if spec, err = spec.Canonicalize(); err != nil {
		return err
	}
	env, err := experiments.NewEnv()
	if err != nil {
		return err
	}
	env.Workers = *parallel
	env.Seed = *seed
	sum, err := env.GridCampaign(spec)
	if err != nil {
		return err
	}
	if *jsonOut {
		// The summary plus its fingerprint, so scripts (the CI service-smoke
		// job) can compare batch and served runs without scraping the table.
		out := struct {
			*campaign.Summary
			Fingerprint string `json:"fingerprint"`
		}{sum, sum.Fingerprint()}
		if err := emitJSON(out); err != nil {
			return err
		}
	} else {
		fmt.Println(experiments.GridTable(spec, sum).String())
		if *statsOn {
			fmt.Println("campaign kernel counters (summed; .max keys are high-water marks):")
			fmt.Print(obs.FormatFlat(sum.Stats))
		}
	}
	if sum.Failed > 0 {
		return fmt.Errorf("%d of %d jobs failed", sum.Failed, sum.Jobs)
	}
	return nil
}

// startPprof serves the net/http/pprof handlers (registered on the default
// mux by the blank import) plus a plain-text /debug/metrics dump of the Go
// runtime metrics. Listening synchronously surfaces a bad address as a flag
// error instead of a background log line; the server then runs for the
// process lifetime — profiling a campaign means sampling while it sweeps.
func startPprof(addr string) error {
	if addr == "" {
		return nil
	}
	http.HandleFunc("/debug/metrics", func(w http.ResponseWriter, _ *http.Request) {
		descs := metrics.All()
		samples := make([]metrics.Sample, len(descs))
		for i, d := range descs {
			samples[i].Name = d.Name
		}
		metrics.Read(samples)
		for _, s := range samples {
			switch s.Value.Kind() {
			case metrics.KindUint64:
				fmt.Fprintf(w, "%s %d\n", s.Name, s.Value.Uint64())
			case metrics.KindFloat64:
				fmt.Fprintf(w, "%s %g\n", s.Name, s.Value.Float64())
			}
			// Histogram-kind metrics are omitted: the pprof profiles cover
			// latency distributions far better than a text dump could.
		}
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("-pprof: %w", err)
	}
	fmt.Fprintf(os.Stderr, "pprof: serving http://%s/debug/pprof/ and /debug/metrics\n", ln.Addr())
	go func() {
		if err := http.Serve(ln, nil); err != nil {
			fmt.Fprintln(os.Stderr, "pprof:", err)
		}
	}()
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseSizes(s string) ([]int64, error) {
	var out []int64
	for _, part := range splitList(s) {
		v, err := core.ParseBytes(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func emitJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
