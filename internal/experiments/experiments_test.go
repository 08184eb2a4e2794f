package experiments

import (
	"fmt"
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
	tb.Add(1, 2.5)
	tb.Add("xxx", "y")
	tb.Note("note %d", 7)
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

func TestFigure3OrderingAndAccuracy(t *testing.T) {
	res, err := Figure3(env(t))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OrderingHolds() {
		t.Errorf("Figure 3 model ordering violated: %v", res.Summaries)
	}
	// Paper: piecewise 8.63% avg on griffon. Accept a generous band.
	if pct := res.Summaries["piecewise"].MeanPct(); pct > 20 {
		t.Errorf("piecewise mean error %.1f%%, paper ~8.6%%", pct)
	}
	if pct := res.Summaries["default-affine"].MeanPct(); pct < 10 {
		t.Errorf("default affine suspiciously accurate (%.1f%%), paper ~32%%", pct)
	}
}

func TestFigure4CrossClusterTransfer(t *testing.T) {
	res, err := Figure4(env(t))
	if err != nil {
		t.Fatal(err)
	}
	if !res.PiecewiseBest() {
		t.Errorf("Figure 4: piecewise should stay the most accurate on gdx: %v", res.Summaries)
	}
	if pct := res.Summaries["piecewise"].MeanPct(); pct > 30 {
		t.Errorf("piecewise error %.1f%% on gdx, paper ~7.9%%", pct)
	}
}

func TestFigure5ThreeSwitches(t *testing.T) {
	res, err := Figure5(env(t))
	if err != nil {
		t.Fatal(err)
	}
	if !res.PiecewiseBest() {
		t.Errorf("Figure 5: piecewise should stay the most accurate across 3 switches: %v", res.Summaries)
	}
	if pct := res.Summaries["piecewise"].MeanPct(); pct > 35 {
		t.Errorf("piecewise error %.1f%% across 3 switches, paper ~9.9%%", pct)
	}
}

// withCampaign runs fn with the env temporarily configured for the given
// worker count and seed, restoring the previous settings afterwards (the
// env is shared across tests).
func withCampaign(e *Env, workers int, seed uint64, fn func()) {
	prevW, prevS := e.Workers, e.Seed
	e.Workers, e.Seed = workers, seed
	defer func() { e.Workers, e.Seed = prevW, prevS }()
	fn()
}

func TestFigureCampaignDeterministicAcrossWorkers(t *testing.T) {
	// The acceptance property of the campaign engine: a figure's simulated
	// results are bit-identical at any worker-pool size.
	e := env(t)
	var base, wide *SweepResult
	withCampaign(e, 1, 77, func() {
		var err error
		if base, err = Figure8(e); err != nil {
			t.Fatal(err)
		}
	})
	withCampaign(e, 8, 77, func() {
		var err error
		if wide, err = Figure8(e); err != nil {
			t.Fatal(err)
		}
	})
	for i := range base.Pred {
		if base.Pred[i] != wide.Pred[i] || base.Ref[i] != wide.Ref[i] {
			t.Errorf("size %d: workers=1 (%v, %v) vs workers=8 (%v, %v)",
				base.X[i], base.Pred[i], base.Ref[i], wide.Pred[i], wide.Ref[i])
		}
	}
	if base.Summary != wide.Summary {
		t.Errorf("summaries differ: %v vs %v", base.Summary, wide.Summary)
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
		withCampaign(e, workers, 42, func() {
			sum, err := e.GridCampaign(spec)
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
		})
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
		withCampaign(e, workers, 7, func() {
			sum, err := e.GridCampaign(spec)
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
		})
	}
	if len(fingerprints) != 1 {
		t.Errorf("topology-axis fingerprints differ across worker counts: %v", fingerprints)
	}
	if _, err := e.GridCampaign(GridSpec{
		Op: "scatter", Procs: []int{4}, Sizes: []int64{1024},
		Backends: []string{"surf"}, Topologies: []string{"not-a-topology"},
	}); err == nil {
		t.Error("unknown topology should fail expansion")
	}
}

// TestTopoCollectives runs the cross-topology ring-vs-tree comparison and
// checks the structural claims: every point simulates, results are
// deterministic, and the topology axis actually differentiates — the same
// collective completes in different times on different interconnects,
// which the flat cluster alone cannot express.
func TestTopoCollectives(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-topology comparison is slow; run without -short")
	}
	e := env(t)
	var a, b *TopoCollectivesResult
	withCampaign(e, 1, 3, func() {
		var err error
		if a, err = TopoCollectives(e, 64*core.KiB); err != nil {
			t.Fatal(err)
		}
	})
	withCampaign(e, 8, 3, func() {
		var err error
		if b, err = TopoCollectives(e, 64*core.KiB); err != nil {
			t.Fatal(err)
		}
	})
	for k, v := range a.Times {
		if v <= 0 {
			t.Errorf("%s: non-positive completion %v", k, v)
		}
		if b.Times[k] != v {
			t.Errorf("%s differs across worker counts: %v vs %v", k, v, b.Times[k])
		}
	}
	// The interconnect must matter: for each op/algo, at least two
	// topologies disagree on completion time.
	for _, op := range []string{"bcast/ring", "bcast/binomial", "allreduce/ring", "allreduce/recursive-doubling"} {
		distinct := make(map[float64]bool)
		for _, topo := range topoCollectivesTopos() {
			distinct[a.Times[topo+"/"+op]] = true
		}
		if len(distinct) < 2 {
			t.Errorf("%s: all topologies complete in identical time %v — topology axis inert", op, a.Times)
		}
	}
}

func TestFigure7ContentionMatters(t *testing.T) {
	res, err := Figure7(env(t))
	if err != nil {
		t.Fatal(err)
	}
	maxOf := func(vs []float64) float64 {
		m := 0.0
		for _, v := range vs {
			if v > m {
				m = v
			}
		}
		return m
	}
	noC := maxOf(res.Series["smpi-nocontention"])
	withC := maxOf(res.Series["smpi"])
	om := maxOf(res.Series["openmpi"])
	mp := maxOf(res.Series["mpich2"])
	// Paper: the no-contention model always underestimates.
	if noC >= om {
		t.Errorf("no-contention (%v) should underestimate OpenMPI (%v)", noC, om)
	}
	if noC >= withC {
		t.Errorf("no-contention (%v) should be below contention (%v)", noC, withC)
	}
	// Contention-aware SMPI lands near both real implementations.
	rel := func(a, b float64) float64 {
		if a > b {
			return a/b - 1
		}
		return b/a - 1
	}
	if rel(withC, om) > 0.35 {
		t.Errorf("SMPI (%v) too far from OpenMPI (%v)", withC, om)
	}
	if rel(om, mp) > 0.35 {
		t.Errorf("OpenMPI (%v) and MPICH2 (%v) should be close", om, mp)
	}
}

func TestFigure8LargeMessagesAccurate(t *testing.T) {
	res, err := Figure8(env(t))
	if err != nil {
		t.Fatal(err)
	}
	n := len(res.Pred)
	// Large messages (the last two sizes, >=1MiB) must be within ~20%.
	for i := n - 2; i < n; i++ {
		if rel := res.Pred[i]/res.Ref[i] - 1; rel > 0.25 || rel < -0.25 {
			t.Errorf("size %d: smpi %v vs openmpi %v", res.X[i], res.Pred[i], res.Ref[i])
		}
	}
	// Small messages underestimate (the paper's known limitation).
	if res.Pred[0] > res.Ref[0] {
		t.Logf("note: small-message prediction above reference (paper expects underestimation)")
	}
}

func TestFigure9ConsistentAcrossProcs(t *testing.T) {
	res, err := Figure9(env(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.MeanPct() > 30 {
		t.Errorf("Figure 9 mean error %.1f%%, paper shows very consistent results", res.Summary.MeanPct())
	}
	// Time grows with the process count (total data scales with P).
	for i := 1; i < len(res.Pred); i++ {
		if res.Pred[i] <= res.Pred[i-1] {
			t.Errorf("scatter time should grow with procs: %v", res.Pred)
		}
	}
}

func TestFigure11ContentionAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("16-process 4MiB all-to-all is slow; covered by the full run")
	}
	res, err := Figure11(env(t))
	if err != nil {
		t.Fatal(err)
	}
	maxOf := func(vs []float64) float64 {
		m := 0.0
		for _, v := range vs {
			if v > m {
				m = v
			}
		}
		return m
	}
	noC := maxOf(res.Series["smpi-nocontention"])
	om := maxOf(res.Series["openmpi"])
	withC := maxOf(res.Series["smpi"])
	if noC >= om {
		t.Errorf("no-contention (%v) should badly underestimate all-to-all (%v)", noC, om)
	}
	// Paper: ~78% error without contention, <1% with (we accept 30%).
	if rel := withC/om - 1; rel > 0.3 || rel < -0.3 {
		t.Errorf("SMPI all-to-all %v vs OpenMPI %v", withC, om)
	}
}

func TestFigure12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("all-to-all size sweep is slow; covered by the full run")
	}
	res, err := Figure12(env(t))
	if err != nil {
		t.Fatal(err)
	}
	n := len(res.Pred)
	for i := n - 2; i < n; i++ {
		if rel := res.Pred[i]/res.Ref[i] - 1; rel > 0.3 || rel < -0.3 {
			t.Errorf("size %d: smpi %v vs openmpi %v", res.X[i], res.Pred[i], res.Ref[i])
		}
	}
}

func TestFigure15TrendAndAccuracy(t *testing.T) {
	// Reduced payload keeps the test fast; the graph structure and
	// contention pattern are identical.
	res, err := Figure15(env(t), 512*1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range []string{"A", "B"} {
		wh := res.OpenMPI["WH-"+class]
		bh := res.OpenMPI["BH-"+class]
		if bh <= wh {
			t.Errorf("class %s: BH (%v) should be slower than WH (%v) on the testbed", class, bh, wh)
		}
		whS := res.SMPI["WH-"+class]
		bhS := res.SMPI["BH-"+class]
		if bhS <= whS {
			t.Errorf("class %s: SMPI should predict BH slower than WH", class)
		}
	}
	// Paper: 8.11% average error, 23.5% worst. Accept a generous band.
	if res.Summary.MeanPct() > 30 {
		t.Errorf("DT mean error %.1f%%, paper ~8.1%%", res.Summary.MeanPct())
	}
}

func TestFigure16FoldingRatios(t *testing.T) {
	res, err := Figure16(env(t), 1.0/16, 2*float64(core.GiB))
	if err != nil {
		t.Fatal(err)
	}
	// Folding shrinks every configuration that also ran unfolded.
	var ratios []float64
	for key, plain := range res.Plain {
		folded := res.Folded[key]
		if folded <= 0 || folded >= plain {
			t.Errorf("%s: folded %v vs plain %v", key, folded, plain)
			continue
		}
		ratios = append(ratios, plain/folded)
	}
	if len(ratios) == 0 {
		t.Fatal("no unfolded runs completed")
	}
	// Paper: 11.9x average reduction, up to 40.5x. Require >=3x average.
	var sum float64
	for _, r := range ratios {
		sum += r
	}
	if avg := sum / float64(len(ratios)); avg < 3 {
		t.Errorf("average folding ratio %.1fx, paper reports 11.9x", avg)
	}
	// Class C configurations must be flagged OM without folding.
	if _, ran := res.Plain["SH-C"]; ran {
		t.Error("SH class C (448 procs) should be out-of-memory without folding")
	}
}

func TestFigure17SimulationFasterThanReal(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 17 sweeps large messages")
	}
	res, err := Figure17(env(t))
	if err != nil {
		t.Fatal(err)
	}
	for i, size := range res.Sizes {
		if res.SimWall[i].Seconds() >= res.RealTime[i] {
			t.Errorf("size %d: simulation wall %v not below real %vs", size, res.SimWall[i], res.RealTime[i])
		}
		// Predicted time tracks the testbed within 25% for these large sizes.
		if rel := res.SimTime[i]/res.RealTime[i] - 1; rel > 0.25 || rel < -0.25 {
			t.Errorf("size %d: predicted %v vs real %v", size, res.SimTime[i], res.RealTime[i])
		}
	}
}

func TestFigure18SamplingLinearity(t *testing.T) {
	// Bursts of ~65k pairs (2^22/16/4) are long enough (~1ms) to time
	// stably on a noisy CI machine; tiny bursts make the replayed means
	// jitter-dominated.
	res, err := Figure18(env(t), 22, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Executed bursts scale with the ratio: 16, 12, 8, 4 per rank x4.
	want := []int64{64, 48, 32, 16}
	for i, w := range want {
		if res.Executed[i] != w {
			t.Errorf("ratio %v: executed %d bursts, want %d", res.Ratios[i], res.Executed[i], w)
		}
	}
	// Simulated time stays flat (within 50%: wall-clock measurement noise
	// affects the replayed means).
	base := res.Simulated[0]
	if base <= 0 {
		t.Skip("compute too fast to measure")
	}
	for i, s := range res.Simulated {
		if rel := s/base - 1; rel > 0.5 || rel < -0.5 {
			t.Errorf("ratio %v: simulated %v drifted from %v", res.Ratios[i], s, base)
		}
	}
}

// TestGridPlacementAxisDeterministic sweeps the placement axis — including
// the seed-derived random mapping generated inside worker-pool jobs — and
// checks the acceptance property: bit-identical fingerprints at any
// -parallel worker count.
func TestGridPlacementAxisDeterministic(t *testing.T) {
	e := env(t)
	spec := GridSpec{
		Op:          "allreduce",
		Procs:       []int{8},
		Sizes:       []int64{64 * core.KiB},
		Models:      []string{"piecewise"},
		Backends:    []string{"surf"},
		Topologies:  []string{"fattree16", "torus16"},
		Placements:  []string{"block", "rr", "random"},
		Collectives: "auto",
	}
	fingerprints := make(map[string]int)
	for _, workers := range []int{1, 8} {
		withCampaign(e, workers, 11, func() {
			sum, err := e.GridCampaign(spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := sum.Err(); err != nil {
				t.Fatal(err)
			}
			if sum.Jobs != 6 {
				t.Fatalf("grid expanded to %d jobs, want 6", sum.Jobs)
			}
			fingerprints[sum.Fingerprint()]++
		})
	}
	if len(fingerprints) != 1 {
		t.Errorf("placement-axis fingerprints differ across worker counts: %v", fingerprints)
	}
	if _, err := e.GridCampaign(GridSpec{
		Op: "scatter", Procs: []int{4}, Sizes: []int64{1024},
		Backends: []string{"surf"}, Placements: []string{"zigzag"},
	}); err == nil {
		t.Error("unknown placement should fail expansion")
	}
	if _, err := e.GridCampaign(GridSpec{
		Op: "scatter", Procs: []int{4}, Sizes: []int64{1024},
		Backends: []string{"surf"}, Collectives: "frobnicate=yes",
	}); err == nil {
		t.Error("unknown collective override should fail before running")
	}
}

// TestPlacementSweep runs the placement-vs-routing experiment and checks
// its structural claims: deterministic across worker counts, the forced
// ring allreduce on the oversubscribed fat-tree is strictly slower under
// round-robin than under block placement (the D-mod-k interaction), and on
// the torus block and rr tie exactly (vertex transitivity).
func TestPlacementSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("placement sweep is slow; run without -short")
	}
	e := env(t)
	var a, b *PlacementSweepResult
	withCampaign(e, 1, 5, func() {
		var err error
		if a, err = PlacementSweep(e, 64*core.KiB); err != nil {
			t.Fatal(err)
		}
	})
	withCampaign(e, 8, 5, func() {
		var err error
		if b, err = PlacementSweep(e, 64*core.KiB); err != nil {
			t.Fatal(err)
		}
	})
	for k, v := range a.Times {
		if v <= 0 {
			t.Errorf("%s: non-positive completion %v", k, v)
		}
		if b.Times[k] != v {
			t.Errorf("%s differs across worker counts: %v vs %v", k, v, b.Times[k])
		}
	}
	block := a.Times["fattree64/allreduce(ring)/block"]
	rr := a.Times["fattree64/allreduce(ring)/rr"]
	if !(rr > block) {
		t.Errorf("ring allreduce on fattree64: rr %v not slower than block %v — placement axis inert against D-mod-k", rr, block)
	}
	if tb, trr := a.Times["torus:4x4x4/allreduce(ring)/block"], a.Times["torus:4x4x4/allreduce(ring)/rr"]; tb != trr {
		t.Errorf("torus ring allreduce: block %v vs rr %v, want an exact tie (vertex transitivity)", tb, trr)
	}
}

// TestDegradedSweep runs the degraded-fabric experiment and checks its
// claims on every topology: the healthy run is its own baseline (slowdown
// exactly 1), cutting the trunk further always costs more, and the slowdown
// stays below 1/fraction because part of the all-to-all rides healthy links.
func TestDegradedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("degraded-fabric sweep is slow; run without -short")
	}
	res, err := DegradedSweep(env(t), 16*core.KiB)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range degradedSweepTopos() {
		healthy := res.Times[tp.topo+"/1"]
		prev := 0.0
		for _, frac := range degradedSweepFractions() {
			slowdown := res.Times[fmt.Sprintf("%s/%g", tp.topo, frac)] / healthy
			switch {
			case frac == 1 && slowdown != 1:
				t.Errorf("%s: slowdown %v at fraction 1, want exactly 1", tp.topo, slowdown)
			case frac < 1 && slowdown <= prev:
				t.Errorf("%s: slowdown %v at fraction %g does not exceed %v at the previous fraction", tp.topo, slowdown, frac, prev)
			case frac < 1 && slowdown >= 1/frac:
				t.Errorf("%s: slowdown %v at fraction %g not below 1/fraction", tp.topo, slowdown, frac)
			}
			prev = slowdown
		}
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
		withCampaign(e, workers, 23, func() {
			sum, err := e.GridCampaign(spec)
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
		})
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
	if _, err := e.GridCampaign(GridSpec{
		Op: "scatter", Procs: []int{4}, Sizes: []int64{1024},
		Backends: []string{"openmpi"}, Dynamics: []string{"@1ms link griffon-* scale 0.5"},
	}); err == nil {
		t.Error("dynamics on an emulated backend should fail expansion")
	}
	// Contention-blind links ignore capacities, so a schedule would only fail
	// later, inside the job: the axis refuses it at the door too.
	if _, err := e.GridCampaign(GridSpec{
		Op: "alltoall", Procs: []int{4}, Sizes: []int64{1024},
		Backends: []string{"nocontention"}, Dynamics: []string{"@0s link griffon-* scale 0.5"},
	}); err == nil {
		t.Error("dynamics on the nocontention backend should fail expansion")
	}
	// A malformed schedule fails expansion, not the job.
	if _, err := e.GridCampaign(GridSpec{
		Op: "scatter", Procs: []int{4}, Sizes: []int64{1024},
		Backends: []string{"surf"}, Dynamics: []string{"@wat link a-* scale 0.5"},
	}); err == nil {
		t.Error("malformed dynamics schedule should fail expansion")
	}
}
