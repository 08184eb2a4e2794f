package experiments

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"smpigo/internal/campaign"
	"smpigo/internal/core"
)

func env(t *testing.T) *Env {
	t.Helper()
	e, err := NewEnv()
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "demo", Header: []string{"a", "bb"}}
	tb.add(1, 2.5)
	tb.add("xxx", "y")
	tb.note("note %d", 7)
	s := tb.String()
	for _, want := range []string{"demo", "a", "bb", "xxx", "2.5", "# note 7"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestEnvCalibration(t *testing.T) {
	e := env(t)
	if len(e.Piecewise.Segments) != 3 {
		t.Fatalf("piecewise model has %d segments", len(e.Piecewise.Segments))
	}
	if len(e.Default.Segments) != 1 || len(e.BestFit.Segments) != 1 {
		t.Error("affine models should have one segment")
	}
	// The fitted middle boundary should sit near the 64 KiB protocol
	// switch the emulator implements.
	b1 := e.Piecewise.Segments[1].MaxBytes
	if b1 < 8*core.KiB || b1 > 512*core.KiB {
		t.Errorf("second boundary %d implausibly far from 64KiB", b1)
	}
}

// opts is a campaign on the given worker count and seed.
func opts(workers int, seed uint64) CampaignOptions {
	return CampaignOptions{Workers: workers, Seed: &seed}
}

// TestFigureCampaignDeterministicAcrossWorkers holds the acceptance
// property of the campaign engine: a figure's simulated results — its table
// and its claims' values — are bit-identical at any worker-pool size.
func TestFigureCampaignDeterministicAcrossWorkers(t *testing.T) {
	e := env(t)
	ids := []string{"8"}
	if !testing.Short() {
		ids = append(ids, "topo", "placement") // slow sweeps
	}
	for j, f := range Figures(e, true, CampaignOptions{}) {
		if !slices.Contains(ids, f.ID) {
			continue
		}
		var tables [2]string
		var claims [2][]Claim
		for i, workers := range []int{1, 8} {
			tb, cl, err := Figures(e, true, opts(workers, 77))[j].Run()
			if err != nil {
				t.Fatalf("figure %s: %v", f.ID, err)
			}
			tables[i], claims[i] = tb.String(), cl
		}
		if tables[0] != tables[1] {
			t.Errorf("figure %s: table at workers=1\n%s\ndiffers at workers=8\n%s", f.ID, tables[0], tables[1])
		}
		if !reflect.DeepEqual(claims[0], claims[1]) {
			t.Errorf("figure %s: claims at workers=1 %v differ at workers=8 %v", f.ID, claims[0], claims[1])
		}
	}
}

func TestGridCampaignDeterministicAcrossWorkers(t *testing.T) {
	e := env(t)
	spec := GridSpec{
		Op:       "scatter",
		Procs:    []int{4, 8},
		Sizes:    []int64{64 * core.KiB, 256 * core.KiB},
		Models:   []string{"piecewise", "default"},
		Backends: []string{"surf", "openmpi"},
	}
	fingerprints := make(map[string]int)
	for _, workers := range []int{1, 4} {
		sum, err := e.GridCampaignOpts(spec, opts(workers, 42))
		if err != nil {
			t.Fatal(err)
		}
		if err := sum.Err(); err != nil {
			t.Fatal(err)
		}
		if sum.Jobs != 12 {
			t.Fatalf("grid expanded to %d jobs, want 12", sum.Jobs)
		}
		fingerprints[sum.Fingerprint()]++
	}
	if len(fingerprints) != 1 {
		t.Errorf("grid campaign fingerprints differ across worker counts: %v", fingerprints)
	}
}

// TestGridTopologyAxisDeterministic sweeps the new topology axis and
// checks the acceptance property: bit-identical fingerprints at any
// -parallel worker count.
func TestGridTopologyAxisDeterministic(t *testing.T) {
	e := env(t)
	spec := GridSpec{
		Op:         "scatter",
		Procs:      []int{8},
		Sizes:      []int64{64 * core.KiB},
		Models:     []string{"piecewise"},
		Backends:   []string{"surf"},
		Topologies: []string{"griffon", "fattree16", "torus16", "dragonfly:3x2x2", "fattree:4x4:1x4"},
	}
	fingerprints := make(map[string]int)
	for _, workers := range []int{1, 4} {
		sum, err := e.GridCampaignOpts(spec, opts(workers, 7))
		if err != nil {
			t.Fatal(err)
		}
		if err := sum.Err(); err != nil {
			t.Fatal(err)
		}
		if sum.Jobs != 5 {
			t.Fatalf("grid expanded to %d jobs, want 5", sum.Jobs)
		}
		fingerprints[sum.Fingerprint()]++
	}
	if len(fingerprints) != 1 {
		t.Errorf("topology-axis fingerprints differ across worker counts: %v", fingerprints)
	}
	if _, err := e.GridCampaignOpts(GridSpec{
		Op: "scatter", Procs: []int{4}, Sizes: []int64{1024},
		Backends: []string{"surf"}, Topologies: []string{"not-a-topology"},
	}, CampaignOptions{}); err == nil {
		t.Error("unknown topology should fail expansion")
	}
}

// TestGridPlacementAxisDeterministic sweeps the placement axis — including
// the seed-derived random mapping generated inside worker-pool jobs, over
// half the hosts and over all of them — and checks the acceptance property:
// bit-identical fingerprints at any -parallel worker count.
func TestGridPlacementAxisDeterministic(t *testing.T) {
	e := env(t)
	spec := GridSpec{
		Op:          "allreduce",
		Procs:       []int{8, 16},
		Sizes:       []int64{64 * core.KiB},
		Models:      []string{"piecewise"},
		Backends:    []string{"surf"},
		Topologies:  []string{"fattree16", "torus16"},
		Placements:  []string{"block", "rr", "random"},
		Collectives: "auto",
	}
	fingerprints := make(map[string]int)
	for _, workers := range []int{1, 8} {
		sum, err := e.GridCampaignOpts(spec, opts(workers, 11))
		if err != nil {
			t.Fatal(err)
		}
		if err := sum.Err(); err != nil {
			t.Fatal(err)
		}
		if sum.Jobs != 12 {
			t.Fatalf("grid expanded to %d jobs, want 12", sum.Jobs)
		}
		fingerprints[sum.Fingerprint()]++
	}
	if len(fingerprints) != 1 {
		t.Errorf("placement-axis fingerprints differ across worker counts: %v", fingerprints)
	}
	if _, err := e.GridCampaignOpts(GridSpec{
		Op: "scatter", Procs: []int{4}, Sizes: []int64{1024},
		Backends: []string{"surf"}, Placements: []string{"zigzag"},
	}, CampaignOptions{}); err == nil {
		t.Error("unknown placement should fail expansion")
	}
	if _, err := e.GridCampaignOpts(GridSpec{
		Op: "scatter", Procs: []int{4}, Sizes: []int64{1024},
		Backends: []string{"surf"}, Collectives: "frobnicate=yes",
	}, CampaignOptions{}); err == nil {
		t.Error("unknown collective override should fail before running")
	}
}

// TestDynamicsFingerprintDeterministic sweeps the platform-event axis and
// checks the acceptance property: a campaign with mid-flight link
// degradation fingerprints bit-identically at any -parallel worker count,
// and the degraded scenario is measurably slower than the static one.
func TestDynamicsFingerprintDeterministic(t *testing.T) {
	e := env(t)
	spec := GridSpec{
		Op:         "alltoall",
		Procs:      []int{16},
		Sizes:      []int64{64 * core.KiB},
		Models:     []string{"piecewise"},
		Backends:   []string{"surf"},
		Topologies: []string{"fattree16"},
		Dynamics:   []string{"none", "@0.0005s link fattree16-l2-* scale 0.25"},
	}
	var sums []*campaign.Summary
	fingerprints := make(map[string]int)
	for _, workers := range []int{1, 8} {
		sum, err := e.GridCampaignOpts(spec, opts(workers, 23))
		if err != nil {
			t.Fatal(err)
		}
		if err := sum.Err(); err != nil {
			t.Fatal(err)
		}
		if sum.Jobs != 2 {
			t.Fatalf("grid expanded to %d jobs, want 2 (static + degraded)", sum.Jobs)
		}
		sums = append(sums, sum)
		fingerprints[sum.Fingerprint()]++
	}
	if len(fingerprints) != 1 {
		t.Errorf("dynamics-axis fingerprints differ across worker counts: %v", fingerprints)
	}
	static := sums[0].Results[0]
	degraded := sums[0].Results[1]
	if degraded.Tags["dynamics"] == "" || static.Tags["dynamics"] != "" {
		t.Fatalf("job order unexpected: tags %v / %v", static.Tags, degraded.Tags)
	}
	if degraded.Outcome.SimulatedTime <= static.Outcome.SimulatedTime {
		t.Errorf("spine degraded to 0.25 should slow the alltoall: static %v, degraded %v",
			static.Outcome.SimulatedTime, degraded.Outcome.SimulatedTime)
	}

	// Emulated backends have no LMM constraints to retune; the axis must
	// refuse them rather than silently ignore the schedule.
	if _, err := e.GridCampaignOpts(GridSpec{
		Op: "scatter", Procs: []int{4}, Sizes: []int64{1024},
		Backends: []string{"openmpi"}, Dynamics: []string{"@1ms link griffon-* scale 0.5"},
	}, CampaignOptions{}); err == nil {
		t.Error("dynamics on an emulated backend should fail expansion")
	}
	// Contention-blind links ignore capacities, so a schedule would only fail
	// later, inside the job: the axis refuses it at the door too.
	if _, err := e.GridCampaignOpts(GridSpec{
		Op: "alltoall", Procs: []int{4}, Sizes: []int64{1024},
		Backends: []string{"nocontention"}, Dynamics: []string{"@0s link griffon-* scale 0.5"},
	}, CampaignOptions{}); err == nil {
		t.Error("dynamics on the nocontention backend should fail expansion")
	}
	// A malformed schedule fails expansion, not the job.
	if _, err := e.GridCampaignOpts(GridSpec{
		Op: "scatter", Procs: []int{4}, Sizes: []int64{1024},
		Backends: []string{"surf"}, Dynamics: []string{"@wat link a-* scale 0.5"},
	}, CampaignOptions{}); err == nil {
		t.Error("malformed dynamics schedule should fail expansion")
	}
	// Host events run on every backend, the emulated ones included: every
	// backend computes on the surf CPU model.
	sum, err := e.GridCampaignOpts(GridSpec{
		Op: "ring", Procs: []int{4}, Sizes: []int64{1024},
		Backends: []string{"openmpi"}, Dynamics: []string{"@0s host griffon-* scale 0.5"},
	}, CampaignOptions{})
	if err != nil {
		t.Fatalf("host-only dynamics on an emulated backend: %v", err)
	}
	if err := sum.Err(); err != nil || sum.Jobs != 1 || sum.Results[0].Tags["dynamics"] == "" {
		t.Errorf("host-only dynamics on openmpi: %d jobs, err %v", sum.Jobs, err)
	}
}
