package surf

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"smpigo/internal/core"
	"smpigo/internal/lmm"
	"smpigo/internal/platform"
	"smpigo/internal/simix"
	"smpigo/internal/surf/actionheap"
)

// CPU is the compute model: an Execute action drains a number of flops at
// the host's speed, shared among concurrent actions on the same host. In
// typical SMPI runs each rank is alone on its host, but the sharing matters
// when oversubscribing ranks onto nodes.
//
// Sharing runs through the same LMM machinery as the network model: each
// host is a Shared constraint with capacity equal to its speed, each task a
// weight-1 variable crossing only that constraint. Per-host components are
// disjoint, so the incremental solver reshapes only the host whose task set
// changed — starting or finishing a task on one host never recomputes the
// rest of the machine.
//
// Like the network model, the event path is heap-based: each task's stamped
// completion date lives in a lazy min-heap, NextEvent is an O(1) peek, and
// only tasks whose rate the solver actually changed are drained and
// restamped — never the whole population.
type CPU struct {
	kernel *simix.Kernel

	now  core.Time
	sys  *lmm.System
	cons map[*platform.Host]*lmm.Constraint

	heap     actionheap.Heap[*cpuTask]
	inFlight int
	startSeq uint64

	completed []*cpuTask

	// Observability sinks (see Instrument); nil by default, nil costs
	// nothing.
	stats *CPUStats
	usage UsageRecorder
}

type cpuTask struct {
	host   *platform.Host
	future *simix.Future
	v      *lmm.Variable

	// remaining flops at lastSync, draining at rate; synced lazily when the
	// rate changes or the completion tolerance is checked.
	remaining float64
	lastSync  core.Time
	rate      float64

	seq uint64 // start serial: simultaneous completions fulfill in start order
	gen uint64 // actionheap generation stamp
}

// Generation implements actionheap.Stamped.
func (t *cpuTask) Generation() uint64 { return t.gen }

// NewCPU creates a CPU model bound to kernel.
func NewCPU(kernel *simix.Kernel) *CPU {
	return &CPU{
		kernel: kernel,
		sys:    lmm.New(),
		cons:   make(map[*platform.Host]*lmm.Constraint),
	}
}

func (c *CPU) constraint(h *platform.Host) *lmm.Constraint {
	con, ok := c.cons[h]
	if !ok {
		con = c.sys.NewConstraint(h.Name(), h.Speed, lmm.Shared)
		c.cons[h] = con
	}
	return con
}

// Execute starts draining flops on host and returns a future fulfilled when
// the work completes. Must be called from actor context.
func (c *CPU) Execute(host *platform.Host, flops float64) *simix.Future {
	f := simix.NewFuture()
	c.now = c.kernel.Now()
	if flops <= 0 {
		c.kernel.FulfillAt(f, nil, c.now)
		return f
	}
	if c.stats != nil {
		c.stats.TasksStarted++
	}
	t := &cpuTask{host: host, remaining: flops, future: f, lastSync: c.now, seq: c.startSeq}
	c.startSeq++
	t.v = c.sys.NewVariable(host.Name(), 1, math.Inf(1))
	t.v.Data = t
	c.sys.Attach(t.v, c.constraint(host))
	c.inFlight++
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
// host from the current date on. Like Network.SetLinkBandwidth, the
// platform's Host.Speed stays the immutable nominal description; the
// effective speed lives in this model's LMM constraint, the reshare drains
// every re-solved task at its outgoing rate before the new one applies (flop
// integrals stay exact), and untouched hosts keep their rates and stamped
// dates bit-for-bit.
//
// A speed of zero fails the host: any running task is allocated rate 0 and
// the reshare panics loudly — failure detection, not fault tolerance. Note
// that Delay converts durations through the nominal Host.Speed, so a burst
// on a host slowed to a fraction q takes 1/q times its measured duration:
// the measured work is fixed in flops, the degraded host drains it slower.
func (c *CPU) SetHostSpeed(host *platform.Host, speed float64) {
	if speed < 0 || math.IsNaN(speed) {
		panic(fmt.Sprintf("surf: invalid speed %v for host %q", speed, host.Name()))
	}
	c.now = c.kernel.Now()
	c.sys.SetCapacity(c.constraint(host), speed)
	// Reshare immediately: a change fired from a timer callback must take
	// effect at its date even when no task starts or completes there.
	c.reshare(c.now)
}

// HostSpeed returns the compute capacity currently enforced for host: the
// last SetHostSpeed value, or the platform's nominal speed if it was never
// changed.
func (c *CPU) HostSpeed(host *platform.Host) float64 {
	if con, ok := c.cons[host]; ok {
		return con.Capacity
	}
	return host.Speed
}

// sync drains t's flop count to date to at its current rate.
func (t *cpuTask) sync(to core.Time) {
	t.remaining -= t.rate * float64(to-t.lastSync)
	t.lastSync = to
}

// drain is sync with the drained flop segment reported to the
// observability sinks (the CPU mirror of Network.drain).
func (c *CPU) drain(t *cpuTask, to core.Time) {
	if c.stats != nil {
		c.stats.Syncs++
	}
	if c.usage != nil {
		if flops := t.rate * float64(to-t.lastSync); flops > 0 {
			c.usage.RecordHost(t.host, t.lastSync, to, flops)
		}
	}
	t.sync(to)
}

// stamp records t's completion date as a fresh heap entry, invalidating any
// earlier entry.
func (c *CPU) stamp(t *cpuTask, at core.Time) {
	t.gen++
	c.heap.Push(t, at+core.Duration(t.remaining/t.rate), t.gen)
}

// reshare refreshes task rates after the task population changed at date to.
// Only the components the LMM dirty set touched are re-solved, and only
// their tasks are drained and restamped — starting or finishing a task on
// one host costs that host's component, not the machine.
func (c *CPU) reshare(to core.Time) {
	c.sys.Solve()
	for _, v := range c.sys.Resolved() {
		t := v.Data.(*cpuTask)
		c.drain(t, to)
		t.rate = v.Value
		if t.rate <= 0 {
			panic(fmt.Sprintf(
				"surf: compute task with %g flops remaining on host %q allocated rate 0 (host speed %g); it would never complete",
				t.remaining, t.host.Name(), t.host.Speed))
		}
		c.stamp(t, to)
	}
}

// InFlight returns the number of active compute actions.
func (c *CPU) InFlight() int { return c.inFlight }

// NextEvent implements simix.Model: an O(1) peek at the earliest stamped
// completion date.
func (c *CPU) NextEvent() core.Time {
	return c.heap.NextDue()
}

// Advance implements simix.Model: completes every task whose flops have
// drained by date to and reshares the touched host components. The
// completion tolerance is the scan implementation's: a task finishes once
// its drained remainder is within 1e-9 of a rate-second of zero.
func (c *CPU) Advance(to core.Time) {
	if to < c.now {
		return
	}
	c.now = to
	c.completed = c.completed[:0]
	for {
		t, due, ok := c.heap.Peek()
		if !ok {
			break
		}
		if t.remaining-t.rate*float64(to-t.lastSync) <= 1e-9*t.rate {
			c.heap.Pop()
			c.completed = append(c.completed, t)
			continue
		}
		if due <= to {
			// Overdue but short of its flop count by more than the
			// tolerance (float drift on huge tasks): restamp the drained
			// remainder, as the scan kept answering now + remaining/rate.
			c.heap.Pop()
			c.drain(t, to)
			if c.stats != nil {
				c.stats.Restamps++
			}
			c.stamp(t, to)
			continue
		}
		break
	}
	if len(c.completed) == 0 {
		return
	}
	slices.SortFunc(c.completed, func(a, b *cpuTask) int { return cmp.Compare(a.seq, b.seq) })
	for _, t := range c.completed {
		c.sys.RemoveVariable(t.v)
		t.v = nil
		if c.stats != nil {
			c.stats.Completions++
		}
		if c.usage != nil && t.remaining > 0 {
			// Final remainder: closes the task's segment stream at exactly
			// its flop count (the Network completion path's mirror).
			c.usage.RecordHost(t.host, t.lastSync, to, t.remaining)
		}
		t.gen++
		c.inFlight--
		c.kernel.Fulfill(t.future, nil)
	}
	c.reshare(to)
}
