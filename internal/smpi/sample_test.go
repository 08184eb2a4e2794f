package smpi

import "testing"

func TestSampleLocalIntegration(t *testing.T) {
	cfg := testConfig(2)
	execs := 0
	rep := mustRun(t, cfg, func(r *Rank) {
		for i := 0; i < 5; i++ {
			r.SampleLocal("kernel", 2, func() { execs++ })
		}
	})
	// 2 ranks x 2 samples = 4 executions, 6 replays.
	if execs != 4 {
		t.Errorf("burst executed %d times, want 4", execs)
	}
	if rep.BurstsExecuted != 4 || rep.BurstsReplayed != 6 {
		t.Errorf("report: executed %d replayed %d", rep.BurstsExecuted, rep.BurstsReplayed)
	}
}

func TestSampleGlobalIntegration(t *testing.T) {
	cfg := testConfig(4)
	execs := 0
	mustRun(t, cfg, func(r *Rank) {
		r.Comm().Barrier(r)
		for i := 0; i < 3; i++ {
			r.SampleGlobal("kernel", 2, func() { execs++ })
		}
	})
	if execs != 2 {
		t.Errorf("global burst executed %d times, want 2", execs)
	}
}

func TestSharedMallocIntegration(t *testing.T) {
	cfg := testConfig(4)
	rep := mustRun(t, cfg, func(r *Rank) {
		buf := r.SharedMalloc("data", 4000)
		if r.Rank() == 0 {
			buf[0] = 42
		}
		r.Comm().Barrier(r)
		if buf[0] != 42 {
			t.Errorf("rank %d does not see shared write", r.Rank())
		}
		r.SharedFree("data")
	})
	// 4000 bytes folded across 4 ranks: 1000 each.
	if rep.MaxPeakRSS != 1000 {
		t.Errorf("MaxPeakRSS = %v, want 1000", rep.MaxPeakRSS)
	}
}

func TestMallocAccounting(t *testing.T) {
	rep := mustRun(t, testConfig(2), func(r *Rank) {
		buf := r.Malloc(5000)
		r.Free(buf)
	})
	if rep.MaxPeakRSS != 5000 {
		t.Errorf("MaxPeakRSS = %v, want 5000", rep.MaxPeakRSS)
	}
}

func TestSampleFlops(t *testing.T) {
	rep := mustRun(t, testConfig(1), func(r *Rank) {
		r.SampleFlops(3e9) // 3 Gflop on 1 Gf/s node
	})
	if d := float64(rep.SimulatedTime) - 3; d > 1e-9 || d < -1e-9 {
		t.Errorf("SampleFlops charged %v, want 3s", rep.SimulatedTime)
	}
}
