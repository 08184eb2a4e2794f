package surf

import (
	"testing"
	"time"
	"unsafe"

	"smpigo/internal/core"
	"smpigo/internal/platform"
	"smpigo/internal/simix"
)

// TestActionSizeClasses holds the two action types in their Go allocator
// size classes (112 and 64 bytes). Growing past them — two more words in the
// shared action, or a single struct carrying both a route and a host — moves
// every flow to the 128-byte class and every compute task to the 80-byte
// one. A task is allocated per Execute, so there the class is paid per
// burst. A flow is recycled, so its class is paid once per flow in flight at
// the same time, when the network's free list first fills: that is what is
// left of a run's allocation once messages cost nothing, and what this
// holds.
func TestActionSizeClasses(t *testing.T) {
	if got := unsafe.Sizeof(flow{}); got > 112 {
		t.Errorf("flow is %d bytes, want <= 112", got)
	}
	if got := unsafe.Sizeof(cpuTask{}); got > 64 {
		t.Errorf("cpuTask is %d bytes, want <= 64", got)
	}
}

// Regression: far from time zero, an overdue compute task whose remainder
// is above its tolerance but below the clock's resolution was re-stamped at
// due == to forever, and CPU.Advance never returned. While the pop loop
// existed once per model only Network's copy had the guard that completes
// such an action; the kernel runs under a watchdog so that a spin fails the
// test instead of hanging the suite.
func TestOverdueTaskBelowClockResolutionCompletes(t *testing.T) {
	p := platform.New("far")
	h := p.NewHost(1e9)
	k := simix.New()
	cpu := NewCPU(k)
	k.AddModel(cpu)
	rng := core.NewRNG(1)
	for i := 0; i < 3; i++ {
		flops := (1 + rng.Float64()*5) * 1e9
		offset := core.Duration(rng.Float64() * 3)
		k.Spawn("w", func(pr *simix.Proc) {
			sleep(k, pr, 1e8)
			sleep(k, pr, offset)
			pr.Wait(cpu.Execute(h, flops))
		})
	}
	done := make(chan error, 1)
	go func() { done <- k.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("CPU.Advance spins on an overdue task it can neither complete nor move")
	}
	if cpu.inFlight != 0 {
		t.Errorf("%d tasks still in flight", cpu.inFlight)
	}
}
