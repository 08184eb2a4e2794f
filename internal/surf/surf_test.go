package surf

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"smpigo/internal/core"
	"smpigo/internal/lmm"
	"smpigo/internal/platform"
	"smpigo/internal/platform/platformtest"
	"smpigo/internal/simix"
)

// twoHostPlatform builds a minimal platform: two hosts connected by a pair
// of directed links with the given bandwidth and one-way latency per link.
// sleep lets d of simulated time pass on pr.
func sleep(k *simix.Kernel, pr *simix.Proc, d core.Duration) {
	f := simix.NewFuture()
	k.FulfillAt(f, pr.Now()+d)
	pr.Wait(f)
}

func twoHostPlatform(bw float64, lat core.Duration) (*platform.Platform, *platform.Host, *platform.Host) {
	f := platformtest.New("mini")
	a, b := f.Platform.NewHost(1e9), f.Platform.NewHost(1e9)
	f.Route(a, b, f.Link("up", bw, lat, lmm.Shared), f.Link("down", bw, lat, lmm.Shared))
	return f.Platform, a, b
}

// starPlatform builds a source host with one up-link and two destination
// hosts behind their own down-links.
func starPlatform() (p *platform.Platform, src, d1, d2 *platform.Host) {
	f := platformtest.New("star")
	src, d1, d2 = f.Platform.NewHost(1e9), f.Platform.NewHost(1e9), f.Platform.NewHost(1e9)
	up := f.Link("up", 125e6, 10*core.Microsecond, lmm.Shared)
	f.Route(src, d1, up, f.Link("down1", 125e6, 10*core.Microsecond, lmm.Shared))
	f.Route(src, d2, up, f.Link("down2", 125e6, 10*core.Microsecond, lmm.Shared))
	return f.Platform, src, d1, d2
}

func runTransfer(t *testing.T, net func(*simix.Kernel) *Network, p *platform.Platform,
	a, b *platform.Host, size int64) core.Time {
	t.Helper()
	k := simix.New()
	n := net(k)
	k.AddModel(n)
	var done core.Time
	k.Spawn("sender", func(pr *simix.Proc) {
		f := simix.NewFuture()
		n.StartFlow(p.Route(a, b), size, f)
		pr.Wait(f)
		done = pr.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return done
}

func TestSingleFlowIdealTiming(t *testing.T) {
	p, a, b := twoHostPlatform(125e6, 10*core.Microsecond)
	done := runTransfer(t, func(k *simix.Kernel) *Network {
		return NewNetwork(k, Ideal())
	}, p, a, b, 1<<20)
	want := 20e-6 + float64(1<<20)/125e6
	if math.Abs(float64(done)-want) > 1e-9 {
		t.Errorf("transfer finished at %v, want %v", done, want)
	}
}

func TestLatencyOnlySmallMessage(t *testing.T) {
	p, a, b := twoHostPlatform(125e6, 10*core.Microsecond)
	done := runTransfer(t, func(k *simix.Kernel) *Network {
		return NewNetwork(k, Ideal())
	}, p, a, b, 1)
	want := 20e-6 + 1/125e6
	if math.Abs(float64(done)-want) > 1e-12 {
		t.Errorf("1-byte transfer at %v, want %v", done, want)
	}
}

func TestModelFactorsApplied(t *testing.T) {
	p, a, b := twoHostPlatform(125e6, 10*core.Microsecond)
	model := Affine("half", 2, 0.5) // double latency, half bandwidth
	done := runTransfer(t, func(k *simix.Kernel) *Network {
		return NewNetwork(k, model)
	}, p, a, b, 1<<20)
	want := 2*20e-6 + float64(1<<20)/(0.5*125e6)
	if math.Abs(float64(done)-want) > 1e-9 {
		t.Errorf("factored transfer at %v, want %v", done, want)
	}
}

func TestPiecewiseSegmentSelection(t *testing.T) {
	m := NetModel{Name: "pwl", Segments: []Segment{
		{MaxBytes: 1024, LatFactor: 1, BwFactor: 2},
		{MaxBytes: 65536, LatFactor: 3, BwFactor: 0.5},
		{MaxBytes: math.MaxInt64, LatFactor: 5, BwFactor: 0.9},
	}}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		size int64
		want float64 // LatFactor of expected segment
	}{
		{0, 1}, {1023, 1}, {1024, 3}, {65535, 3}, {65536, 5}, {1 << 30, 5},
	}
	for _, c := range cases {
		if got := m.Segment(c.size).LatFactor; got != c.want {
			t.Errorf("Segment(%d).LatFactor = %v, want %v", c.size, got, c.want)
		}
	}
}

func TestModelValidation(t *testing.T) {
	bad := []NetModel{
		{Name: "empty"},
		{Name: "unsorted", Segments: []Segment{
			{MaxBytes: 100, LatFactor: 1, BwFactor: 1},
			{MaxBytes: 50, LatFactor: 1, BwFactor: 1},
		}},
		{Name: "bounded-last", Segments: []Segment{{MaxBytes: 100, LatFactor: 1, BwFactor: 1}}},
		{Name: "zero-bw", Segments: []Segment{{MaxBytes: math.MaxInt64, LatFactor: 1, BwFactor: 0}}},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("model %q should be invalid", m.Name)
		}
	}
	if err := DefaultAffine(1).Validate(); err != nil {
		t.Errorf("DefaultAffine invalid: %v", err)
	}
}

func TestTwoFlowsContendOnSharedLink(t *testing.T) {
	// Two flows from the same source share its up-link: each should get
	// half the bandwidth, so both finish at lat + 2*size/bw.
	p, src, d1, d2 := starPlatform()

	k := simix.New()
	n := NewNetwork(k, Ideal())
	k.AddModel(n)
	size := int64(1 << 20)
	var t1, t2 core.Time
	k.Spawn("sender", func(pr *simix.Proc) {
		f1, f2 := simix.NewFuture(), simix.NewFuture()
		n.StartFlow(p.Route(src, d1), size, f1)
		n.StartFlow(p.Route(src, d2), size, f2)
		pr.Wait(f1)
		t1 = pr.Now()
		pr.Wait(f2)
		t2 = pr.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := 20e-6 + 2*float64(size)/125e6
	if math.Abs(float64(t1)-want) > 1e-6 || math.Abs(float64(t2)-want) > 1e-6 {
		t.Errorf("contended finishes at %v, %v; want both ~%v", t1, t2, want)
	}
}

func TestContentionDisabledIgnoresSharing(t *testing.T) {
	p, src, d1, d2 := starPlatform()

	k := simix.New()
	n := NewNetwork(k, Ideal())
	n.Contention = false
	k.AddModel(n)
	size := int64(1 << 20)
	var t1 core.Time
	k.Spawn("sender", func(pr *simix.Proc) {
		f1, f2 := simix.NewFuture(), simix.NewFuture()
		n.StartFlow(p.Route(src, d1), size, f1)
		n.StartFlow(p.Route(src, d2), size, f2)
		pr.Wait(f1)
		t1 = pr.Now()
		pr.Wait(f2)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := 20e-6 + float64(size)/125e6 // full bandwidth each
	if math.Abs(float64(t1)-want) > 1e-6 {
		t.Errorf("no-contention finish at %v, want %v", t1, want)
	}
}

func TestStaggeredFlowsDynamicResharing(t *testing.T) {
	// Flow B starts halfway through flow A: A runs at full rate, then both
	// share, then the survivor speeds back up.
	p, a, b := twoHostPlatform(100, 0) // 100 B/s, zero latency for clean math
	k := simix.New()
	n := NewNetwork(k, Ideal())
	k.AddModel(n)
	var doneA, doneB core.Time
	k.Spawn("driver", func(pr *simix.Proc) {
		fA := simix.NewFuture()
		n.StartFlow(p.Route(a, b), 200, fA) // alone: 2s nominal
		sleep(k, pr, 1)
		fB := simix.NewFuture()
		n.StartFlow(p.Route(a, b), 100, fB)
		pr.Wait(fA)
		doneA = pr.Now()
		pr.Wait(fB)
		doneB = pr.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// A: 100B in first second, then shares 50/50; remaining 100B at 50B/s
	// -> done at t=3. B: 100B at 50B/s until t=3 (100B drained exactly).
	if math.Abs(float64(doneA)-3) > 1e-9 {
		t.Errorf("A done at %v, want 3", doneA)
	}
	if math.Abs(float64(doneB)-3) > 1e-9 {
		t.Errorf("B done at %v, want 3", doneB)
	}
}

func TestLoopbackFlow(t *testing.T) {
	p := platform.New("solo")
	a := p.NewHost(1e9)
	k := simix.New()
	n := NewNetwork(k, Ideal())
	k.AddModel(n)
	var done core.Time
	k.Spawn("self", func(pr *simix.Proc) {
		f := simix.NewFuture()
		n.StartFlow(p.Route(a, a), 4e9, f)
		pr.Wait(f)
		done = pr.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if done <= 0 || done > 2 {
		t.Errorf("loopback of 4GB took %v, want ~1s", done)
	}
}

func TestZeroByteFlowCompletesAfterLatency(t *testing.T) {
	p, a, b := twoHostPlatform(125e6, 10*core.Microsecond)
	done := runTransfer(t, func(k *simix.Kernel) *Network {
		return NewNetwork(k, Ideal())
	}, p, a, b, 0)
	if math.Abs(float64(done)-20e-6) > 1e-12 {
		t.Errorf("zero-byte flow at %v, want latency 20us", done)
	}
}

func TestInFlightAccounting(t *testing.T) {
	p, a, b := twoHostPlatform(125e6, 10*core.Microsecond)
	k := simix.New()
	n := NewNetwork(k, Ideal())
	k.AddModel(n)
	k.Spawn("s", func(pr *simix.Proc) {
		f := simix.NewFuture()
		n.StartFlow(p.Route(a, b), 1000, f)
		if n.inFlight != 1 {
			t.Error("expected 1 in-flight flow")
		}
		pr.Wait(f)
		if n.inFlight != 0 {
			t.Error("expected 0 in-flight flows after completion")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCPUExecuteTiming(t *testing.T) {
	p := platform.New("c")
	h := p.NewHost(1e9)
	k := simix.New()
	cpu := NewCPU(k)
	k.AddModel(cpu)
	var done core.Time
	k.Spawn("worker", func(pr *simix.Proc) {
		pr.Wait(cpu.Execute(h, 2.5e9))
		done = pr.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(done)-2.5) > 1e-9 {
		t.Errorf("2.5Gf on 1Gf/s host took %v, want 2.5", done)
	}
}

func TestCPUSharingOnOversubscribedHost(t *testing.T) {
	p := platform.New("c")
	h := p.NewHost(1e9)
	k := simix.New()
	cpu := NewCPU(k)
	k.AddModel(cpu)
	var d1, d2 core.Time
	k.Spawn("w1", func(pr *simix.Proc) {
		pr.Wait(cpu.Execute(h, 1e9))
		d1 = pr.Now()
	})
	k.Spawn("w2", func(pr *simix.Proc) {
		pr.Wait(cpu.Execute(h, 1e9))
		d2 = pr.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Both share the host: each runs at 0.5 Gf/s, done at t=2.
	if math.Abs(float64(d1)-2) > 1e-9 || math.Abs(float64(d2)-2) > 1e-9 {
		t.Errorf("shared compute done at %v, %v; want 2, 2", d1, d2)
	}
}

func TestCPUDelayScalesWithSpeed(t *testing.T) {
	p := platform.New("c")
	h := p.NewHost(2e9)
	k := simix.New()
	cpu := NewCPU(k)
	k.AddModel(cpu)
	var done core.Time
	k.Spawn("w", func(pr *simix.Proc) {
		pr.Wait(cpu.Delay(h, 1.5))
		done = pr.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(done)-1.5) > 1e-9 {
		t.Errorf("Delay(1.5) took %v", done)
	}
}

func TestCPUZeroFlops(t *testing.T) {
	p := platform.New("c")
	h := p.NewHost(1e9)
	k := simix.New()
	cpu := NewCPU(k)
	k.AddModel(cpu)
	k.Spawn("w", func(pr *simix.Proc) {
		pr.Wait(cpu.Execute(h, 0))
		if pr.Now() != 0 {
			t.Errorf("zero flops advanced time to %v", pr.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// Regression: a flow routed over a zero-bandwidth link gets rate 0 and
// would drain forever — NextEvent used to report TimeForever and the
// simulation hung (or died with an unexplained deadlock). It must instead
// fail loudly, naming the route.
func TestZeroBandwidthLinkFailsLoudly(t *testing.T) {
	for _, contention := range []bool{true, false} {
		f := platformtest.New("dead")
		p := f.Platform
		a, b := p.NewHost(1e9), p.NewHost(1e9)
		f.Route(a, b, f.Link("dead-up", 0, 10*core.Microsecond, lmm.Shared), f.Link("dead-down", 125e6, 10*core.Microsecond, lmm.Shared))
		k := simix.New()
		n := NewNetwork(k, Ideal())
		n.Contention = contention
		k.AddModel(n)
		k.Spawn("sender", func(pr *simix.Proc) {
			f := simix.NewFuture()
			n.StartFlow(p.Route(a, b), 1<<20, f)
			pr.Wait(f)
		})
		err := k.Run()
		if err == nil {
			t.Fatalf("contention=%v: zero-bandwidth transfer did not fail", contention)
		}
		if !strings.Contains(err.Error(), "dead-up") {
			t.Errorf("contention=%v: error does not name the route: %v", contention, err)
		}
		if !strings.Contains(err.Error(), "never complete") {
			t.Errorf("contention=%v: error does not explain the stall: %v", contention, err)
		}
	}
}

// Regression: the same stall exists on the compute side for a zero-speed
// host (rate 0 on the host constraint); and Delay must not silently convert
// through the zero speed into 0 flops, vanishing the burst from simulated
// time.
func TestZeroSpeedHostFailsLoudly(t *testing.T) {
	ops := []struct {
		name string
		op   func(*CPU, *platform.Host) *simix.Future
	}{
		{"execute", func(c *CPU, h *platform.Host) *simix.Future { return c.Execute(h, 1e9) }},
		{"delay", func(c *CPU, h *platform.Host) *simix.Future { return c.Delay(h, 1.5) }},
	}
	for _, op := range ops {
		p := platform.New("powerless")
		h := p.NewHost(0)
		k := simix.New()
		cpu := NewCPU(k)
		k.AddModel(cpu)
		k.Spawn("w", func(pr *simix.Proc) {
			pr.Wait(op.op(cpu, h))
		})
		err := k.Run()
		if err == nil {
			t.Fatalf("%s on a zero-speed host did not fail", op.name)
		}
		if !strings.Contains(err.Error(), "powerless-0") {
			t.Errorf("%s error does not name the host: %v", op.name, err)
		}
	}
}

// Property: on an uncontended route, transfer time is monotone in size and
// exactly latFactor*lat + size/(bwFactor*bw) for the active segment.
func TestTransferTimeFormulaProperty(t *testing.T) {
	p, a, b := twoHostPlatform(125e6, 10*core.Microsecond)
	model := NetModel{Name: "pwl", Segments: []Segment{
		{MaxBytes: 1024, LatFactor: 0.8, BwFactor: 0.3},
		{MaxBytes: 65536, LatFactor: 1.5, BwFactor: 0.6},
		{MaxBytes: math.MaxInt64, LatFactor: 2.5, BwFactor: 0.92},
	}}
	f := func(raw uint32) bool {
		size := int64(raw%(1<<22)) + 1
		done := runTransfer(t, func(k *simix.Kernel) *Network {
			return NewNetwork(k, model)
		}, p, a, b, size)
		seg := model.Segment(size)
		want := float64(seg.LatFactor*20e-6) + float64(size)/(seg.BwFactor*125e6)
		return math.Abs(float64(done)-want) < 1e-6*math.Max(1, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
