package surf

import (
	"fmt"
	"math"

	"smpigo/internal/core"
	"smpigo/internal/lmm"
	"smpigo/internal/platform"
	"smpigo/internal/simix"
)

// CPU is the compute model: an Execute action drains a number of flops at
// the host's speed, shared among concurrent actions on the same host. In
// typical SMPI runs each rank is alone on its host, but the sharing matters
// when oversubscribing ranks onto nodes.
//
// Sharing runs through the same engine as the network model: each host is a
// Shared constraint with capacity equal to its speed, each task a weight-1
// variable crossing only that constraint. Per-host components are disjoint,
// so the incremental solver reshapes only the host whose task set changed —
// starting or finishing a task on one host never recomputes the rest of the
// machine.
type CPU struct {
	engine[*cpuTask]
}

type cpuTask struct {
	action
	host *platform.Host
}

// latent is never true: a compute task has no latency phase.
func (t *cpuTask) latent() bool { return false }

func (t *cpuTask) record(u UsageRecorder, from, to core.Time, flops float64) {
	u.RecordHost(t.host, from, to, flops)
}

func (t *cpuTask) stall() *StallError {
	return &StallError{Host: t.host.Name(), Remaining: t.remaining, Limit: t.host.Speed}
}

// NewCPU creates a CPU model bound to kernel.
func NewCPU(kernel *simix.Kernel) *CPU {
	return &CPU{
		engine: engine[*cpuTask]{kernel: kernel, sys: lmm.New(), relTol: flopTol},
	}
}

func (c *CPU) constraint(h *platform.Host) *lmm.Constraint {
	return c.engine.constraint(h.ID, h, h.Speed, lmm.Shared)
}

// Execute starts draining flops on host and returns a future fulfilled when
// the work completes. Must be called from actor context. A NaN or infinite
// amount panics: no date completes it, so it would otherwise surface only
// as a deadlock.
func (c *CPU) Execute(host *platform.Host, flops float64) *simix.Future {
	if !(math.Abs(flops) <= math.MaxFloat64) { // NaN fails the comparison too
		panic(fmt.Sprintf("surf: compute burst of %v flops on host %q cannot be simulated", flops, host.Name()))
	}
	f := simix.NewFuture()
	c.now = c.kernel.Now()
	if flops <= 0 {
		c.kernel.FulfillAt(f, c.now)
		return f
	}
	t := &cpuTask{action: action{future: f, remaining: flops, lastSync: c.now}, host: host}
	c.admit(t)
	t.v = c.sys.NewVariable("task", 1, math.Inf(1))
	t.v.Data = t
	c.sys.Attach(t.v, c.constraint(host))
	c.reshare(c.now)
	return f
}

// Delay charges a fixed simulated delay on host, converting through the
// host's speed. It is how measured CPU-burst durations re-enter the
// simulation (paper Section 3.1).
func (c *CPU) Delay(host *platform.Host, d core.Duration) *simix.Future {
	if d > 0 && host.Speed <= 0 {
		// Converting through a zero speed would yield 0 flops and silently
		// drop the burst from simulated time instead of stalling on the
		// host constraint; fail as loudly as a stalled Execute does.
		panic(fmt.Sprintf("surf: %v compute delay on host %q with speed %g would be silently lost",
			d, host.Name(), host.Speed))
	}
	return c.Execute(host, float64(d)*host.Speed)
}

// SetHostSpeed changes the compute capacity the sharing system enforces for
// host from the current date on, exactly (see setCapacity); the platform's
// Host.Speed stays the immutable nominal description.
//
// A speed of zero fails the host: any running task is allocated rate 0 and
// the reshare panics loudly with a *StallError — failure detection, not
// fault tolerance. Note that Delay converts durations through the nominal
// Host.Speed, so a burst on a host slowed to a fraction q takes 1/q times
// its measured duration: the measured work is fixed in flops, the degraded
// host drains it slower.
func (c *CPU) SetHostSpeed(host *platform.Host, speed float64) {
	if speed < 0 || math.IsNaN(speed) {
		panic(fmt.Sprintf("surf: invalid speed %v for host %q", speed, host.Name()))
	}
	c.setCapacity(c.constraint(host), speed)
}

// Advance implements simix.Model: completes every task whose flops have
// drained by date to and reshares the touched host components.
func (c *CPU) Advance(to core.Time) {
	if !c.popDue(to) {
		return
	}
	c.complete(to)
	c.reshare(to)
}
