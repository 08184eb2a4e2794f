package surf

import (
	"math"
	"testing"

	"smpigo/internal/core"
	"smpigo/internal/platform"
	"smpigo/internal/simix"
)

// linkBandwidth returns the capacity currently enforced for l: the last
// SetLinkBandwidth value, or the platform's nominal bandwidth if it was
// never changed.
func (n *Network) linkBandwidth(l *platform.Link) float64 {
	if l.ID < len(n.cons) && n.cons[l.ID] != nil {
		return n.cons[l.ID].Capacity
	}
	return l.Bandwidth
}

// hostSpeed returns the compute capacity currently enforced for host: the
// last SetHostSpeed value, or the platform's nominal speed if it was never
// changed.
func (c *CPU) hostSpeed(host *platform.Host) float64 {
	if host.ID < len(c.cons) && c.cons[host.ID] != nil {
		return c.cons[host.ID].Capacity
	}
	return host.Speed
}

// segRecorder accumulates per-link byte totals from the drained-segment
// stream, the minimal UsageRecorder for exactness checks.
type segRecorder struct {
	bytes map[int]float64
}

func (r *segRecorder) RecordLink(l *platform.Link, from, to core.Time, bytes float64) {
	if r.bytes == nil {
		r.bytes = map[int]float64{}
	}
	r.bytes[l.ID] += bytes
}
func (r *segRecorder) RecordHost(h *platform.Host, from, to core.Time, flops float64) {}

// TestSetLinkBandwidthAnalytic pins the drain-before-mutate semantics on a
// single flow: halve the bandwidth mid-transfer and the completion date must
// match the closed form (bytes drained at the old rate until the change, the
// remainder at the new rate), and the usage recorder must account exactly
// the flow's size per link.
func TestSetLinkBandwidthAnalytic(t *testing.T) {
	const (
		bw   = 1e6
		lat  = core.Duration(1e-3)
		size = 8e6 // 8 s at full rate
	)
	p, a, b := twoHostPlatform(bw, lat)
	up := p.Links()[0]

	k := simix.New()
	n := NewNetwork(k, Ideal())
	rec := &segRecorder{}
	n.usage = rec
	k.AddModel(n)

	var done core.Time
	k.Spawn("sender", func(pr *simix.Proc) {
		f := simix.NewFuture()
		n.StartFlow(p.Route(a, b), int64(size), f)
		pr.Wait(f)
		done = pr.Now()
	})
	// Halve the up link 2 s into the transfer phase.
	at := core.Time(2*lat) + 2
	tf := simix.NewFuture()
	k.OnFulfill(tf, func() { n.SetLinkBandwidth(up, bw/2) })
	k.FulfillAt(tf, at)

	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Latency 2ms, then 2 s at 1e6 B/s (2e6 bytes), then 6e6 bytes at 5e5.
	want := core.Time(2*lat) + 2 + core.Time(6e6/5e5)
	if math.Abs(float64(done-want)) > 1e-9 {
		t.Errorf("completion at %v, want %v", done, want)
	}
	for _, l := range p.Links() {
		if got := rec.bytes[l.ID]; math.Abs(got-size) > 1e-6 {
			t.Errorf("link %s carried %v bytes, want %v", l.Name(), got, float64(size))
		}
	}
	if got := n.linkBandwidth(up); got != bw/2 {
		t.Errorf("linkBandwidth = %v, want %v", got, bw/2)
	}
}

// TestSetLinkBandwidthRestore degrades and restores around an idle interval:
// a flow started after the restore must see the nominal rate again, and
// setting the capacity on a link with no flows must not disturb anything.
func TestSetLinkBandwidthRestore(t *testing.T) {
	const (
		bw  = 1e6
		lat = core.Duration(1e-3)
	)
	p, a, b := twoHostPlatform(bw, lat)
	up := p.Links()[0]

	k := simix.New()
	n := NewNetwork(k, Ideal())
	k.AddModel(n)

	var elapsed core.Duration
	k.Spawn("sender", func(pr *simix.Proc) {
		sleep(k, pr, 1) // degrade and restore both happen while idle
		start := pr.Now()
		f := simix.NewFuture()
		n.StartFlow(p.Route(a, b), 1e6, f)
		pr.Wait(f)
		elapsed = core.Duration(pr.Now() - start)
	})
	for _, ev := range []struct {
		at core.Time
		bw float64
	}{{0.2, bw / 4}, {0.5, bw}} {
		ev := ev
		f := simix.NewFuture()
		k.OnFulfill(f, func() { n.SetLinkBandwidth(up, ev.bw) })
		k.FulfillAt(f, ev.at)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := 2*lat + 1 // nominal rate: 1e6 bytes at 1e6 B/s
	if math.Abs(float64(elapsed-want)) > 1e-9 {
		t.Errorf("transfer took %v, want nominal %v", elapsed, want)
	}
}

// TestSetHostSpeedAnalytic mirrors the link test on the CPU model: slow the
// host mid-task and the completion date must match the closed form.
func TestSetHostSpeedAnalytic(t *testing.T) {
	p := platform.New("mini")
	h := p.NewHost(1e9)

	k := simix.New()
	c := NewCPU(k)
	k.AddModel(c)

	var done core.Time
	k.Spawn("worker", func(pr *simix.Proc) {
		pr.Wait(c.Execute(h, 4e9)) // 4 s at nominal speed
		done = pr.Now()
	})
	f := simix.NewFuture()
	k.OnFulfill(f, func() { c.SetHostSpeed(h, 0.5e9) })
	k.FulfillAt(f, 1)

	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 1 s at 1e9 f/s (1e9 flops), then 3e9 flops at 0.5e9 f/s = 6 s.
	if want := core.Time(7); math.Abs(float64(done-want)) > 1e-9 {
		t.Errorf("completion at %v, want %v", done, want)
	}
	if got := c.hostSpeed(h); got != 0.5e9 {
		t.Errorf("hostSpeed = %v, want 0.5e9", got)
	}
	if h.Speed != 1e9 {
		t.Errorf("nominal platform speed mutated: %v", h.Speed)
	}
}

// TestSetLinkBandwidthValidation pins the failure modes: negative/NaN
// panics, and a contention-blind network rejects the call outright.
func TestSetLinkBandwidthValidation(t *testing.T) {
	p, _, _ := twoHostPlatform(1e6, 1e-3)
	up := p.Links()[0]
	k := simix.New()
	n := NewNetwork(k, Ideal())
	for _, bad := range []float64{-1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetLinkBandwidth(%v) did not panic", bad)
				}
			}()
			n.SetLinkBandwidth(up, bad)
		}()
	}
	n.SetLinkBandwidth(up, 0) // zero is legal: a failed link
	if got := n.linkBandwidth(up); got != 0 {
		t.Errorf("LinkBandwidth after fail = %v, want 0", got)
	}
	blind := NewNetwork(simix.New(), Ideal())
	blind.Contention = false
	defer func() {
		if recover() == nil {
			t.Error("SetLinkBandwidth on a contention-blind network did not panic")
		}
	}()
	blind.SetLinkBandwidth(up, 1e6)
}
