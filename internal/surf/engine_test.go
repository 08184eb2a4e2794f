package surf

import (
	"testing"
	"time"
	"unsafe"

	"smpigo/internal/core"
	"smpigo/internal/lmm"
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
		flops := (1 + float64(rng.Float64()*5)) * 1e9
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

// TestFreshLinksAllocateOnlyTheirConstraints pins what the first flow over
// fresh links costs a warm Network. Each cycle starts, promotes and delivers
// one flow over two links with an empty free list, so the flow allocates its
// future, its object and its links storage. A link the network has not seen
// adds its constraint: the object, its variable list and its fill list. The
// constraint table is already grown to the highest link ID, and no link
// name is formatted.
func TestFreshLinksAllocateOnlyTheirConstraints(t *testing.T) {
	const (
		cycles   = 50
		flowCost = 3 // future, flow, links storage
		linkCost = 3 // constraint, its variable list, its fill list
	)
	p := platform.New("alloc")
	routes := make([]platform.Route, cycles+2)
	for i := range routes {
		up, down := p.NewLink(1e9, 1e-6, lmm.Shared), p.NewLink(1e9, 1e-6, lmm.Shared)
		routes[i] = platform.Route{Links: []*platform.Link{up, down}, Latency: 2e-6}
	}
	// The post-solve check allocates; the allocations pinned are the model's.
	defer func(on bool) { lmm.CheckAfterSolve = on }(lmm.CheckAfterSolve)
	lmm.CheckAfterSolve = false
	n := NewNetwork(simix.New(), Ideal())
	cycle := func(route platform.Route) {
		n.StartFlow(route, 1e6, simix.NewFuture())
		n.Advance(n.NextEvent()) // latency over: the flow joins the sharing
		n.Advance(n.NextEvent()) // delivered
		n.free = n.free[:0]
	}
	cycle(routes[len(routes)-1]) // warm: the table holds every link ID

	next := 0
	fresh := testing.AllocsPerRun(cycles, func() {
		cycle(routes[next])
		next++
	})
	if want := float64(flowCost + 2*linkCost); fresh != want {
		t.Errorf("a flow over two fresh links makes %v allocations, want %v", fresh, want)
	}
	used := testing.AllocsPerRun(cycles, func() { cycle(routes[0]) })
	if used != flowCost {
		t.Errorf("a flow over two used links makes %v allocations, want %v", used, float64(flowCost))
	}
}
