package surf

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"smpigo/internal/core"
	"smpigo/internal/lmm"
	"smpigo/internal/platform"
	"smpigo/internal/simix"
	"smpigo/internal/surf/actionheap"
)

// Tolerances of the event path, shared by the heap pop loop. They are the
// historical values of the linear-scan implementation, so event timing is
// unchanged: a flow still leaves its latency phase within promoteTol of
// latEnd, and still completes once its drained remainder is within byteTol
// of zero.
const (
	promoteTol core.Duration = 1e-15
	byteTol                  = 1e-6
)

// Network is the flow-level analytical network model. Transfers are flows:
// after a latency phase (scaled by the model's LatFactor) the flow's
// remaining bytes drain at a rate computed by max-min sharing of link
// capacities, capped by the model's BwFactor times the route bottleneck.
//
// With Contention disabled, sharing is skipped entirely and every flow
// drains at its cap — the behaviour of the contention-blind simulators the
// paper compares against (white bars of Figures 7 and 11).
//
// The event path is sublinear in the flow population: every flow's next
// date (latency end, then stamped completion date) lives in a lazy min-heap
// (package actionheap), so NextEvent is an O(1) peek and a churn event costs
// O(log n) heap work plus the LMM re-solve of the touched components. A
// flow's byte count is drained lazily — synced exactly when lmm.Solve's
// Resolved() set reports its rate changed — instead of walking the whole
// population every kernel step.
type Network struct {
	kernel *simix.Kernel
	model  NetModel
	// Contention selects whether concurrent flows share link bandwidth.
	Contention bool

	// Loopback parameters for host-local transfers (rank to itself).
	LoopbackLatency   core.Duration
	LoopbackBandwidth float64

	now  core.Time
	sys  *lmm.System
	cons map[*platform.Link]*lmm.Constraint

	// heap holds one valid entry per in-flight flow: its latency end while
	// unpromoted, then its stamped completion date. Restamps push fresh
	// entries; stale ones are discarded lazily (see actionheap).
	heap     actionheap.Heap[*flow]
	inFlight int
	startSeq uint64

	// Per-Advance scratch, retained across steps.
	promoted  []*flow
	completed []*flow

	// Observability sinks (see Instrument). Both nil by default; every hook
	// compiles to a nil check, so an uninstrumented network pays nothing.
	stats *NetworkStats
	usage UsageRecorder
}

type flow struct {
	route  platform.Route
	bound  float64
	future *simix.Future

	latEnd  core.Time // end of latency phase
	started bool      // transfer phase entered

	// remaining is the byte count at lastSync; it drains at rate from
	// lastSync on, and is synced (drained to the current date) exactly when
	// the rate changes or the completion tolerance must be checked.
	remaining float64
	lastSync  core.Time
	rate      float64
	v         *lmm.Variable

	// seq is the start serial: completions and promotions that share a date
	// are processed in start order, like the scan implementation did, so
	// actor wakeup order is unchanged.
	seq uint64
	// gen is the actionheap generation stamp; bumped on every restamp and at
	// completion, invalidating older heap entries.
	gen uint64
}

// Generation implements actionheap.Stamped.
func (f *flow) Generation() uint64 { return f.gen }

// NewNetwork creates a network model bound to kernel, using the given
// point-to-point model, with contention enabled.
func NewNetwork(kernel *simix.Kernel, model NetModel) *Network {
	if err := model.Validate(); err != nil {
		panic(err)
	}
	return &Network{
		kernel:            kernel,
		model:             model,
		Contention:        true,
		LoopbackLatency:   500 * 1e-9,
		LoopbackBandwidth: 4e9,
		sys:               lmm.New(),
		cons:              make(map[*platform.Link]*lmm.Constraint),
	}
}

// Model returns the point-to-point model in use.
func (n *Network) Model() NetModel { return n.model }

// InFlight returns the number of active flows (for tests and stats).
func (n *Network) InFlight() int { return n.inFlight }

// StartFlow begins transferring size bytes along route and returns a future
// fulfilled (with nil) at delivery time. An empty route is a loopback
// transfer. Must be called from actor context (i.e. at the current date).
func (n *Network) StartFlow(route platform.Route, size int64, future *simix.Future) {
	n.now = n.kernel.Now()
	if len(route.Links) == 0 {
		if n.stats != nil {
			n.stats.Loopbacks++
		}
		d := n.LoopbackLatency + core.Duration(float64(size)/n.LoopbackBandwidth)
		n.kernel.FulfillAt(future, nil, n.now+d)
		return
	}
	if n.stats != nil {
		n.stats.FlowsStarted++
	}
	seg := n.model.Segment(size)
	f := &flow{
		route:     route,
		bound:     seg.BwFactor * route.Bottleneck(),
		future:    future,
		latEnd:    n.now + core.Duration(seg.LatFactor)*route.Latency,
		remaining: float64(size),
		seq:       n.startSeq,
	}
	n.startSeq++
	n.inFlight++
	// The flow consumes no bandwidth during its latency phase; it joins the
	// sharing system when its latency entry pops in Advance.
	n.heap.Push(f, f.latEnd, f.gen)
}

func (n *Network) constraint(l *platform.Link) *lmm.Constraint {
	c, ok := n.cons[l]
	if !ok {
		c = n.sys.NewConstraint(l.Name(), l.Bandwidth, l.Policy)
		n.cons[l] = c
	}
	return c
}

// SetLinkBandwidth changes the capacity the sharing system enforces for l
// from the current date on. The platform's Link.Bandwidth is untouched — it
// stays the immutable nominal description (shared across concurrent
// simulations of the same platform), while the effective capacity lives in
// this network's LMM constraint.
//
// Exactness across the change follows the lazy-drain argument of the event
// path: the reshare drains every re-solved flow at its outgoing rate up to
// the current date before the new rate applies, so byte integrals and
// usage-recorder accounting see the old rate exactly until now and the new
// rate exactly after. Untouched components keep their rates and stamped
// dates bit-for-bit.
//
// Setting a capacity of zero fails the link: any flow crossing it is
// allocated rate 0 and the simulation panics loudly (see checkStalled) —
// failure detection, not fault tolerance. Negative or NaN bandwidth panics;
// contention-blind networks reject the call because their flows never
// consult the sharing system.
func (n *Network) SetLinkBandwidth(l *platform.Link, bw float64) {
	if bw < 0 || math.IsNaN(bw) {
		panic(fmt.Sprintf("surf: invalid bandwidth %v for link %q", bw, l.Name()))
	}
	if !n.Contention {
		panic(fmt.Sprintf("surf: SetLinkBandwidth(%q): contention-blind flows ignore link capacities; dynamic bandwidth requires contention", l.Name()))
	}
	n.now = n.kernel.Now()
	n.sys.SetCapacity(n.constraint(l), bw)
	// Reshare immediately: Advance early-returns on steps with no
	// promotions or completions, so a capacity change fired from a timer
	// callback would otherwise sit unsolved past its date.
	n.reshare(n.now)
}

// LinkBandwidth returns the capacity currently enforced for l: the last
// SetLinkBandwidth value, or the platform's nominal bandwidth if it was
// never changed.
func (n *Network) LinkBandwidth(l *platform.Link) float64 {
	if c, ok := n.cons[l]; ok {
		return c.Capacity
	}
	return l.Bandwidth
}

// sync drains f's byte count to date to at its current rate. It is the lazy
// replacement of the former every-step drain loop: called when the flow's
// rate is about to change (so the old rate stops applying) and when the
// completion tolerance fires.
func (f *flow) sync(to core.Time) {
	f.remaining -= f.rate * float64(to-f.lastSync)
	f.lastSync = to
}

// drain is sync with the drained segment reported to the observability
// sinks: the (rate x interval) amount the sync subtracts is exactly what
// every link of the route carried during (lastSync, to], so per-link
// accounting piggybacks on the sync points the lazy event path already
// visits instead of recomputing integrals.
func (n *Network) drain(f *flow, to core.Time) {
	if n.stats != nil {
		n.stats.Syncs++
	}
	if n.usage != nil {
		if bytes := f.rate * float64(to-f.lastSync); bytes > 0 {
			for _, l := range f.route.Links {
				n.usage.RecordLink(l, f.lastSync, to, bytes)
			}
		}
	}
	f.sync(to)
}

// stamp records f's completion date — the current date plus the time to
// drain the remaining bytes at the current rate — as a fresh heap entry,
// invalidating any earlier entry.
func (n *Network) stamp(f *flow, at core.Time) {
	f.gen++
	n.heap.Push(f, at+core.Duration(f.remaining/f.rate), f.gen)
}

// reshare recomputes flow rates after the set of transferring flows changed
// at date to. Solving is selective: promotions and completions only dirty
// the LMM components of the links they touch, flows in untouched components
// keep their rates — and their stamped completion dates — bit-for-bit, and
// only the re-solved variables are synced and restamped. The reshare cost
// scales with the churned components, not with the total flow population.
func (n *Network) reshare(to core.Time) {
	n.sys.Solve()
	for _, v := range n.sys.Resolved() {
		f := v.Data.(*flow)
		n.drain(f, to) // drain at the outgoing rate before it changes
		f.rate = v.Value
		n.checkStalled(f)
		n.stamp(f, to)
	}
}

// checkStalled fails loudly when a transferring flow was allocated rate 0:
// its remaining bytes would never drain, NextEvent would report TimeForever,
// and the simulation would hang (or deadlock-error with no hint of why).
// A zero rate can only come from a zero-bandwidth link on the route or a
// zero rate bound, both platform/model configuration errors.
func (n *Network) checkStalled(f *flow) {
	if f.rate > 0 || f.remaining <= 0 {
		return
	}
	names := make([]string, len(f.route.Links))
	for i, l := range f.route.Links {
		names[i] = l.Name()
	}
	panic(fmt.Sprintf(
		"surf: flow with %g bytes remaining allocated rate 0 and would never complete; route: %s (zero-bandwidth link or zero rate bound %g)",
		f.remaining, strings.Join(names, " -> "), f.bound))
}

// NextEvent implements simix.Model: an O(1) peek at the earliest stamped
// date (after lazily discarding stale entries).
func (n *Network) NextEvent() core.Time {
	return n.heap.NextDue()
}

// Advance implements simix.Model: promotes flows whose latency phase ends by
// date to, completes flows whose bytes have drained, and reshares the
// touched components. Only flows with an event at or before to are visited;
// the rest of the population is untouched.
func (n *Network) Advance(to core.Time) {
	if to < n.now {
		return
	}
	n.now = to

	n.promoted = n.promoted[:0]
	n.completed = n.completed[:0]
	for {
		f, due, ok := n.heap.Peek()
		if !ok {
			break
		}
		if !f.started {
			// Latency entry. The promotion tolerance is the scan's: a flow
			// whose latency ends within promoteTol of the step date enters
			// its transfer phase now.
			if due > to+promoteTol {
				break
			}
			n.heap.Pop()
			n.promoted = append(n.promoted, f)
			continue
		}
		// Completion entry. The byte tolerance absorbs floating-point
		// drift: the flow completes once its drained remainder is within
		// byteTol of zero at the step date. Unlike the scan, only surfaced
		// entries are tolerance-checked — a flow within byteTol of done but
		// stamped behind a non-qualifying entry completes at its own due
		// date, at most byteTol/rate later (see ARCHITECTURE, "The event
		// path").
		if f.remaining-f.rate*float64(to-f.lastSync) <= byteTol {
			n.heap.Pop()
			n.completed = append(n.completed, f)
			continue
		}
		if due <= to {
			// Overdue but materially short of its byte count (possible on
			// huge transfers, where one ulp of the remainder exceeds the
			// tolerance): re-stamp the drained remainder, as the scan kept
			// answering now + remaining/rate. If the remainder is below the
			// clock's resolution at this date, restamping would reproduce
			// due == to forever (the scan implementation livelocked at
			// kernel level in this state) — complete instead.
			n.heap.Pop()
			n.drain(f, to)
			if to+core.Duration(f.remaining/f.rate) <= to {
				n.completed = append(n.completed, f)
				continue
			}
			if n.stats != nil {
				n.stats.Restamps++
			}
			n.stamp(f, to)
			continue
		}
		break
	}
	if len(n.promoted) == 0 && len(n.completed) == 0 {
		return
	}

	// Promote in start order so LMM variables are created in the order the
	// scan implementation created them (variable serials seed component
	// ordering, so this keeps allocations bit-identical).
	slices.SortFunc(n.promoted, func(a, b *flow) int { return cmp.Compare(a.seq, b.seq) })
	for _, f := range n.promoted {
		f.started = true
		f.lastSync = to
		if f.remaining <= 0 {
			// Zero-byte control flow: completes below, never joins sharing.
			n.completed = append(n.completed, f)
			continue
		}
		if n.Contention {
			f.v = n.sys.NewVariable("flow", 1, f.bound)
			f.v.Data = f
			for _, l := range f.route.Links {
				n.sys.Attach(f.v, n.constraint(l))
			}
		} else {
			// No sharing: the flow drains at its cap from promotion on.
			f.rate = f.bound
			n.checkStalled(f)
			n.stamp(f, to)
		}
	}

	// Complete in start order — the wakeup order the scan produced.
	slices.SortFunc(n.completed, func(a, b *flow) int { return cmp.Compare(a.seq, b.seq) })
	for _, f := range n.completed {
		if f.v != nil {
			n.sys.RemoveVariable(f.v)
			f.v = nil
		}
		if n.stats != nil {
			n.stats.Completions++
		}
		if n.usage != nil && f.remaining > 0 {
			// The final remainder — the bytes between the flow's last sync
			// and delivery, within byteTol of rate x interval — closes the
			// flow's segment stream at exactly its size, so per-link totals
			// conserve bytes with no tolerance at all.
			for _, l := range f.route.Links {
				n.usage.RecordLink(l, f.lastSync, to, f.remaining)
			}
		}
		f.gen++ // invalidate any remaining heap entries
		n.inFlight--
		n.kernel.Fulfill(f.future, nil)
	}

	if n.Contention {
		n.reshare(to)
	}
}
