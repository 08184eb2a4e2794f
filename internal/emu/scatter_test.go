package emu_test

import (
	"testing"

	"smpigo/internal/core"
	"smpigo/internal/emu"
	"smpigo/internal/experiments"
	"smpigo/internal/obs"
	"smpigo/internal/platform"
	"smpigo/internal/smpi"
)

// TestScatterHeapHoldsStreamHeads runs smpirun's 32-rank 1 MiB scatter on
// griffon under emulated OpenMPI (`smpirun -app scatter -np 32 -chunk 1MiB
// -backend openmpi -stats`). The heap holds at most one entry per message
// in flight (each of the run's transfers has at most one at a time) plus
// one per link, where pushing every frame up front held 22 452; and it is
// still given every hop event once, so the push count is the one the
// eager scheme made. It lives outside package emu because it runs smpi,
// which imports emu.
func TestScatterHeapHoldsStreamHeads(t *testing.T) {
	plat, err := platform.Griffon().Build()
	if err != nil {
		t.Fatal(err)
	}
	app, _, err := experiments.AppRank("scatter", core.MiB)
	if err != nil {
		t.Fatal(err)
	}
	st := &obs.Stats{}
	rep, err := smpi.Run(smpi.Config{Procs: 32, Platform: plat, Backend: smpi.BackendEmu, Impl: emu.OpenMPI(), Stats: st}, app)
	if err != nil {
		t.Fatal(err)
	}
	if bound := int(rep.Messages) + len(plat.Links()); st.NetHeap.MaxLen > bound {
		t.Errorf("heap.net.len.max = %d, want <= %d messages + %d links", st.NetHeap.MaxLen, rep.Messages, len(plat.Links()))
	}
	if st.NetHeap.Pushes != 174531 {
		t.Errorf("heap.net.pushes = %d, want 174531", st.NetHeap.Pushes)
	}
}
