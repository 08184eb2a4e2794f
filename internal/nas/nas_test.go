package nas

import (
	"math"
	"testing"

	"smpigo/internal/platform"
	"smpigo/internal/smpi"
)

func dtRun(t *testing.T, cfg DTConfig, backend smpi.Backend) (*smpi.Report, *DTResult) {
	t.Helper()
	procs, err := DTProcs(cfg.Graph, cfg.Class)
	if err != nil {
		t.Fatal(err)
	}
	plat, err := platform.Griffon().Build()
	if err != nil {
		t.Fatal(err)
	}
	app, res := DT(cfg)
	rep, err := smpi.Run(smpi.Config{Procs: procs, Platform: plat, Backend: backend}, app)
	if err != nil {
		t.Fatal(err)
	}
	return rep, res
}

func TestDTProcsTable(t *testing.T) {
	cases := []struct {
		g    DTGraph
		c    DTClass
		want int
	}{
		{WH, ClassA, 21}, {BH, ClassA, 21},
		{WH, ClassB, 43}, {BH, ClassB, 43},
		{WH, ClassC, 85}, {BH, ClassC, 85},
		{SH, ClassA, 80}, {SH, ClassB, 192}, {SH, ClassC, 448},
	}
	for _, c := range cases {
		got, err := DTProcs(c.g, c.c)
		if err != nil || got != c.want {
			t.Errorf("DTProcs(%s,%c) = %d, %v; want %d", c.g, c.c, got, err, c.want)
		}
	}
	if _, err := DTProcs(DTGraph("XX"), ClassA); err == nil {
		t.Error("unknown graph should error")
	}
}

func TestTreeStructure(t *testing.T) {
	// 21 nodes: root 0, children 1-4, grandchildren 5-20.
	if treeParent(1) != 0 || treeParent(4) != 0 || treeParent(5) != 1 || treeParent(20) != 4 {
		t.Error("tree parent map wrong")
	}
	if kids := treeChildren(0, 21); len(kids) != 4 || kids[0] != 1 {
		t.Errorf("children of root: %v", kids)
	}
	if kids := treeChildren(5, 21); len(kids) != 0 {
		t.Errorf("node 5 should be a leaf in 21 nodes: %v", kids)
	}
	if kids := treeChildren(1, 21); len(kids) != 4 || kids[0] != 5 || kids[3] != 8 {
		t.Errorf("children of 1: %v", kids)
	}
}

func TestDTWhiteHoleRuns(t *testing.T) {
	rep, res := dtRun(t, DTConfig{Graph: WH, Class: ClassS}, smpi.BackendSurf)
	if rep.SimulatedTime <= 0 {
		t.Error("zero simulated time")
	}
	if res.Checksum == 0 {
		t.Error("WH checksum not computed")
	}
}

func TestDTBlackHoleRuns(t *testing.T) {
	rep, res := dtRun(t, DTConfig{Graph: BH, Class: ClassS}, smpi.BackendSurf)
	if rep.SimulatedTime <= 0 || res.Checksum == 0 {
		t.Errorf("BH: time %v checksum %x", rep.SimulatedTime, res.Checksum)
	}
}

func TestDTShuffleRuns(t *testing.T) {
	rep, res := dtRun(t, DTConfig{Graph: SH, Class: ClassS}, smpi.BackendSurf)
	if rep.SimulatedTime <= 0 || res.Checksum == 0 {
		t.Errorf("SH: time %v checksum %x", rep.SimulatedTime, res.Checksum)
	}
}

func TestDTChecksumDeterministicAcrossBackends(t *testing.T) {
	// On-line simulation computes real data: the checksum must not depend
	// on the timing backend.
	_, a := dtRun(t, DTConfig{Graph: WH, Class: ClassS}, smpi.BackendSurf)
	_, b := dtRun(t, DTConfig{Graph: WH, Class: ClassS}, smpi.BackendEmu)
	if a.Checksum != b.Checksum {
		t.Errorf("checksum differs across backends: %x vs %x", a.Checksum, b.Checksum)
	}
}

func TestDTBHSlowerThanWH(t *testing.T) {
	// The paper's Figure 15 trend: the black hole takes longer than the
	// white hole for the same class.
	wh, _ := dtRun(t, DTConfig{Graph: WH, Class: ClassS}, smpi.BackendSurf)
	bh, _ := dtRun(t, DTConfig{Graph: BH, Class: ClassS}, smpi.BackendSurf)
	if bh.SimulatedTime <= wh.SimulatedTime {
		t.Errorf("BH (%v) should be slower than WH (%v)", bh.SimulatedTime, wh.SimulatedTime)
	}
}

func TestDTFoldingReducesRSS(t *testing.T) {
	plain, _ := dtRun(t, DTConfig{Graph: WH, Class: ClassS}, smpi.BackendSurf)
	folded, _ := dtRun(t, DTConfig{Graph: WH, Class: ClassS, Fold: true}, smpi.BackendSurf)
	if folded.MaxPeakRSS >= plain.MaxPeakRSS {
		t.Errorf("folding did not reduce RSS: %v vs %v", folded.MaxPeakRSS, plain.MaxPeakRSS)
	}
	ratio := plain.MaxPeakRSS / folded.MaxPeakRSS
	if ratio < 3 {
		t.Errorf("folding ratio only %.1fx", ratio)
	}
}

func TestDTClassAHasPaperScaleRuntime(t *testing.T) {
	if testing.Short() {
		t.Skip("class A is slow in -short mode")
	}
	rep, _ := dtRun(t, DTConfig{Graph: WH, Class: ClassA}, smpi.BackendSurf)
	// The paper's Figure 15 shows WH class A well under 4 seconds.
	if rep.SimulatedTime < 0.05 || rep.SimulatedTime > 10 {
		t.Errorf("WH class A simulated %v, expected paper-scale (0.05-10s)", rep.SimulatedTime)
	}
}

func epRun(t *testing.T, cfg EPConfig, procs int) (*smpi.Report, *EPResult) {
	t.Helper()
	plat, err := platform.Griffon().Build()
	if err != nil {
		t.Fatal(err)
	}
	app, res := EP(cfg)
	rep, err := smpi.Run(smpi.Config{Procs: procs, Platform: plat}, app)
	if err != nil {
		t.Fatal(err)
	}
	return rep, res
}

func TestEPFullExecutionStatistics(t *testing.T) {
	_, res := epRun(t, EPConfig{M: 16, Iterations: 8, SampleRatio: 1}, 4)
	total := int64(1) << 16
	// Acceptance rate of the polar method is pi/4 ~ 0.785.
	rate := float64(res.PairsInCircle) / float64(total)
	if math.Abs(rate-math.Pi/4) > 0.02 {
		t.Errorf("acceptance rate %.3f, want ~0.785", rate)
	}
	// Gaussian sums should be near zero relative to the count.
	if math.Abs(res.SumX) > 5*math.Sqrt(float64(res.PairsInCircle)) {
		t.Errorf("SumX = %v too far from 0", res.SumX)
	}
	var tally int64
	for _, c := range res.Counts {
		tally += c
	}
	if tally != res.PairsInCircle {
		t.Errorf("annuli tally %d != accepted %d", tally, res.PairsInCircle)
	}
}

func TestEPSamplingReducesExecutedBursts(t *testing.T) {
	full, _ := epRun(t, EPConfig{M: 16, Iterations: 16, SampleRatio: 1}, 2)
	quarter, _ := epRun(t, EPConfig{M: 16, Iterations: 16, SampleRatio: 0.25}, 2)
	if full.BurstsExecuted != 32 {
		t.Errorf("full run executed %d bursts, want 32", full.BurstsExecuted)
	}
	if quarter.BurstsExecuted != 8 {
		t.Errorf("25%% run executed %d bursts, want 8", quarter.BurstsExecuted)
	}
	if quarter.BurstsReplayed != 24 {
		t.Errorf("25%% run replayed %d bursts, want 24", quarter.BurstsReplayed)
	}
}

func TestEPSimulatedTimeStableUnderSampling(t *testing.T) {
	// Figure 18's dashed line: the simulated execution time barely moves
	// as the sampling ratio decreases (EP is perfectly regular).
	full, _ := epRun(t, EPConfig{M: 18, Iterations: 16, SampleRatio: 1}, 2)
	half, _ := epRun(t, EPConfig{M: 18, Iterations: 16, SampleRatio: 0.5}, 2)
	a, b := float64(full.SimulatedTime), float64(half.SimulatedTime)
	if a == 0 || b == 0 {
		t.Skip("bursts too fast to time on this machine")
	}
	if diff := math.Abs(a-b) / a; diff > 0.5 {
		t.Errorf("simulated time moved %.0f%% under sampling (%v vs %v)", diff*100, a, b)
	}
}

func TestEPSimulatedTimeExactUnderSampling(t *testing.T) {
	// The sampled path charges the same modelled burst cost as the
	// fully-executed path, so the simulated time is bit-identical at every
	// sampling ratio — not merely close. This is also what makes EP
	// campaigns deterministic under parallel execution.
	full, _ := epRun(t, EPConfig{M: 18, Iterations: 16, SampleRatio: 1}, 2)
	for _, ratio := range []float64{0.75, 0.5, 0.25} {
		sampled, _ := epRun(t, EPConfig{M: 18, Iterations: 16, SampleRatio: ratio}, 2)
		if sampled.SimulatedTime != full.SimulatedTime {
			t.Errorf("ratio %v: simulated %v != full %v", ratio, sampled.SimulatedTime, full.SimulatedTime)
		}
	}
}

func TestEPGlobalSampling(t *testing.T) {
	rep, _ := epRun(t, EPConfig{M: 16, Iterations: 8, SampleRatio: 0.5, Global: true}, 4)
	// Global sampling: 4 executions total (not per-rank).
	if rep.BurstsExecuted != 4 {
		t.Errorf("global sampling executed %d bursts, want 4", rep.BurstsExecuted)
	}
}
