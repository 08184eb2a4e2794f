package main

import (
	"encoding/json"
	"io"
)

// metricDef is one row of the catalogue. bound is the share of the parent's
// median by which an end-to-end metric may get worse before a change counts
// as a regression; per-layer metrics have none.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off and reported for every workload.
var endToEnd = []metricDef{
	// Parent starts the child -> the child's first timed op: process start,
	// calibration, platform build, warm op. Median of the rounds.
	{"setup_s", "s", "lower", 0.25},
	// Host time of one op (campaign, smpi.Run or service request): the
	// lowest of the rounds' medians. The bound is what this class of machine
	// allows: two runs of the same code differ by up to 10%.
	{"op_ms", "ms", "lower", 0.25},
	// Ops completed per second of timed wall clock, best round.
	{"ops_per_s", "1/s", "higher", 0.25},
	// Go heap bytes allocated per op (TotalAlloc delta over all rounds).
	{"alloc_mb_per_op", "MB", "lower", 0.01},
	// The child's resident-set high-water mark (VmHWM). Mean of the rounds.
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// layerCounters are the exact per-op counts a traced run takes from the
// program's own obs counters (GridSpec.Stats / smpi.Config.Stats).
var layerCounters = []string{
	"simix.actor_runs", "simix.rounds",
	"surf.flows", "surf.syncs", "surf.heap_pushes",
	"lmm.solves", "lmm.components", "lmm.vars_resolved",
	"platform.routes", "emu.hop_events",
}

// probeDefs are the layer probes (probes.go): public calls of one layer
// timed at a shape the workloads induce, independent of the workload.
var probeDefs = []metricDef{
	{name: "probe.simix.handoff_ns", unit: "ns", better: "lower"},
	{name: "probe.surf.flow_ns", unit: "ns", better: "lower"},
	{name: "probe.surf.model_share", unit: "ratio", better: "lower"},
	{name: "probe.lmm.solve_ns.small", unit: "ns", better: "lower"},
	{name: "probe.lmm.solve_ns.giant", unit: "ns", better: "lower"},
	{name: "probe.platform.route_ns", unit: "ns", better: "lower"},
	{name: "probe.topology.build_ms", unit: "ms", better: "lower"},
	{name: "probe.smpi.p2p_ns.eager", unit: "ns", better: "lower"},
	{name: "probe.smpi.p2p_ns.rendezvous", unit: "ns", better: "lower"},
	{name: "probe.sampling.malloc_ns", unit: "ns", better: "lower"},
	{name: "probe.emu.hop_ns", unit: "ns", better: "lower"},
	{name: "probe.campaign.dispatch_us", unit: "us", better: "lower"},
	{name: "probe.experiments.key_us", unit: "us", better: "lower"},
	{name: "probe.service.hit_us", unit: "us", better: "lower"},
}

var machineRefNames = []string{"machine.ref_cpu_ms", "machine.ref_mem_ms", "machine.ref_handoff_ms"}

// perLayer lists every per-layer metric of a traced run.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	for _, c := range layerCounters {
		defs = append(defs, metricDef{name: c, unit: "count", better: "lower"})
	}
	defs = append(defs,
		metricDef{name: "lmm.component_vars_max", unit: "count", better: "lower"},
		metricDef{name: "surf.heap_stale_ratio", unit: "ratio", better: "lower"},
		metricDef{name: "go.mallocs_per_op", unit: "count", better: "lower"},
		metricDef{name: "go.gc_cycles_per_op", unit: "count", better: "lower"},
		metricDef{name: "go.gc_pause_ms_per_op", unit: "ms", better: "lower"},
	)
	for _, l := range ledgerLayers {
		defs = append(defs, metricDef{name: "cpu_share." + l, unit: "ratio", better: "lower"})
	}
	defs = append(defs,
		metricDef{name: "span.calibrate_ms", unit: "ms", better: "lower"},
		metricDef{name: "span.warm_op_ms", unit: "ms", better: "lower"},
		metricDef{name: "span.op_ms", unit: "ms", better: "lower"},
		metricDef{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
		metricDef{name: "e2e.op_ms_tail", unit: "ms", better: "lower"},
		metricDef{name: "e2e.op_ms_tail_pct", unit: "%", better: "higher"},
		metricDef{name: "e2e.jobs_per_s", unit: "1/s", better: "higher"},
		metricDef{name: "experiments.sim_err_pct", unit: "%", better: "lower"},
		metricDef{name: "service.cache_hit_ratio", unit: "ratio", better: "higher"},
	)
	defs = append(defs, probeDefs...)
	for _, r := range machineRefNames {
		defs = append(defs, metricDef{name: r, unit: "ms", better: "lower"})
	}
	return defs
}

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

// printManifest writes BENCHMARK.json from the tables above, so the file
// the driver reads cannot drift from what the program prints.
func printManifest(w io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.name, d.unit, d.better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// runSeconds is BENCHMARK.json's run_seconds: how long the driver asks one
// run to measure.
const runSeconds = 15
