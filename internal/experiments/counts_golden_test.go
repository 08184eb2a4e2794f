package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"smpigo/internal/core"
	"smpigo/internal/nas"
	"smpigo/internal/obs"
	"smpigo/internal/smpi"
)

// TestCountsPinned pins what one op of each simulation workload of the
// benchmark (bench/workloads.go) makes every layer of the simulator do: the
// kernel's scheduling rounds and actor runs, the models' flows and syncs,
// the solver's solves and components, the emulator's hop events, the routes
// and each heap's pushes, pops and high-water mark. The counts are exact, so
// a change that makes the simulator do more or less work fails here even
// when its results are unchanged; -update rewrites testdata/counts.golden,
// which only a change that means to move a count may do. Allocation counts
// depend on the Go runtime and stay out.
func TestCountsPinned(t *testing.T) {
	e := env(t)
	grids := []struct {
		name string
		spec GridSpec
	}{
		{"a2a_payload", GridSpec{Op: "alltoall", Platform: "griffon", Procs: []int{32},
			Sizes: []int64{32 * core.KiB, 128 * core.KiB}, Models: []string{"piecewise"}, Backends: []string{"surf"}}},
		{"fattree_a2a256", GridSpec{Op: "alltoall", Topologies: []string{"fattree:16x8x8:1x8x8"}, Procs: []int{256},
			Sizes: []int64{1 * core.KiB}, Models: []string{"piecewise"}, Backends: []string{"surf"}}},
		{"grid_validate", GridSpec{Op: "scatter", Platform: "griffon", Procs: []int{4, 8, 16, 32},
			Sizes:  []int64{16 * core.KiB, 64 * core.KiB, 256 * core.KiB, 1 * core.MiB},
			Models: []string{"piecewise"}, Backends: []string{"surf", "openmpi", "mpich2"}}},
	}
	var out strings.Builder
	for _, g := range grids {
		g.spec.Stats = true
		sum, err := e.GridCampaignOpts(g.spec, CampaignOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := sum.Err(); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		counts := map[string]float64{}
		for _, r := range sum.Results {
			layerCounts(counts, r.Outcome.Stats, r.Tags["backend"] != "surf")
		}
		writeCounts(t, &out, g.name, counts)
	}

	dt := nas.DTConfig{Graph: nas.SH, Class: nas.ClassC, PayloadBytes: 256 * int(core.KiB), Fold: true}
	procs, err := nas.DTProcs(dt.Graph, dt.Class)
	if err != nil {
		t.Fatal(err)
	}
	app, _ := nas.DT(dt)
	st := new(obs.Stats)
	if _, err := smpi.Run(smpi.Config{Procs: procs, Platform: e.Griffon, Model: e.Piecewise, Stats: st}, app); err != nil {
		t.Fatal(err)
	}
	counts := map[string]float64{}
	layerCounts(counts, st.Flat(), false)
	writeCounts(t, &out, "dt_shuffle448", counts)

	compareGolden(t, "testdata/counts.golden", out.String())
}

// layerCounts adds one run's obs.Stats.Flat counters to counts under the
// layer the benchmark's ledger names them by: the kernel's are simix's, the
// network and CPU models' surf's, the routes platform's, and on the
// emulator the network heap's are emu's (each push is a packet-hop event).
// High-water marks take the maximum, everything else sums.
func layerCounts(counts, flat map[string]float64, emu bool) {
	for k, v := range flat {
		switch {
		case k == "routes":
			k = "platform.routes"
		case strings.HasPrefix(k, "kernel."):
			k = "simix." + strings.TrimPrefix(k, "kernel.")
		case strings.HasPrefix(k, "net.") || strings.HasPrefix(k, "cpu."):
			k = "surf." + k
		case emu && k == "heap.net.pushes":
			k = "emu.hop_events"
		case emu && strings.HasPrefix(k, "heap.net."):
			k = "emu.heap." + strings.TrimPrefix(k, "heap.net.")
		}
		if strings.HasSuffix(k, ".max") {
			counts[k] = math.Max(counts[k], v)
		} else {
			counts[k] += v
		}
	}
}

// writeCounts renders a workload's counts one per line, keys sorted, zeros
// dropped.
func writeCounts(t *testing.T, out *strings.Builder, workload string, counts map[string]float64) {
	t.Helper()
	keys := make([]string, 0, len(counts))
	for k, v := range counts {
		if v != 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := counts[k]
		if v != math.Trunc(v) {
			t.Fatalf("%s: counter %s = %v is not an integer", workload, k, v)
		}
		fmt.Fprintf(out, "%s %s %d\n", workload, k, int64(v))
	}
}
