package surf

import (
	"fmt"
	"math"

	"smpigo/internal/core"
	"smpigo/internal/lmm"
	"smpigo/internal/platform"
	"smpigo/internal/simix"
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
// The event path (heap, lazy drain, reshare) is the embedded engine's; what
// is here is what only a network has: loopback, the latency phase and the
// contention switch.
type Network struct {
	engine[*flow]
	model NetModel
	// Contention selects whether concurrent flows share link bandwidth.
	Contention bool

	cons map[*platform.Link]*lmm.Constraint

	// free holds delivered flows for StartFlow to reuse (see Advance).
	free []*flow
}

// Loopback parameters for host-local transfers (rank to itself).
const (
	loopbackLatency   core.Duration = 500 * 1e-9
	loopbackBandwidth               = 4e9
)

// flow is one transfer. The object outlives it: a delivered flow, which has
// no heap entry, goes on its network's free list and serves a later
// StartFlow, keeping the storage of route.Links.
type flow struct {
	action
	route   platform.Route // Links is the flow's own storage, not the caller's
	bound   float64
	started bool // latency phase over, transfer phase entered
}

func (f *flow) latent() bool { return !f.started }

func (f *flow) record(u UsageRecorder, from, to core.Time, bytes float64) {
	for _, l := range f.route.Links {
		u.RecordLink(l, from, to, bytes)
	}
}

// stall blames the route: a zero rate can only come from a zero-bandwidth
// link on it or a zero rate bound, both platform/model configuration errors
// (or a link failed mid-run by SetLinkBandwidth).
func (f *flow) stall() *StallError {
	names := make([]string, len(f.route.Links))
	for i, l := range f.route.Links {
		names[i] = l.Name()
	}
	return &StallError{Links: names, Remaining: f.remaining, Limit: f.bound}
}

// NewNetwork creates a network model bound to kernel, using the given
// point-to-point model, with contention enabled.
func NewNetwork(kernel *simix.Kernel, model NetModel) *Network {
	if err := model.Validate(); err != nil {
		panic(err)
	}
	return &Network{
		engine:     engine[*flow]{kernel: kernel, sys: lmm.New(), absTol: byteTol},
		model:      model,
		Contention: true,
		cons:       make(map[*platform.Link]*lmm.Constraint),
	}
}

// StartFlow begins transferring size bytes along route; future is fulfilled
// (with nil) at delivery time. The route's links are copied, so the caller
// may resolve its next route into the same buffer. An empty route is a
// loopback transfer. Must be called from actor context (i.e. at the current
// date).
func (n *Network) StartFlow(route platform.Route, size int64, future *simix.Future) {
	n.now = n.kernel.Now()
	if len(route.Links) == 0 {
		if n.stats != nil {
			n.stats.Loopbacks++
		}
		d := loopbackLatency + core.Duration(float64(size)/loopbackBandwidth)
		n.kernel.FulfillAt(future, nil, n.now+d)
		return
	}
	seg := n.model.Segment(size)
	f := n.newFlow()
	f.future, f.remaining = future, float64(size)
	f.route.Links = append(f.route.Links, route.Links...)
	f.route.Latency = route.Latency
	f.bound = seg.BwFactor * route.Bottleneck()
	n.admit(f)
	// The flow consumes no bandwidth during its latency phase; it joins the
	// sharing system when its latency entry pops in Advance.
	n.heap.Push(f, n.now+core.Duration(seg.LatFactor)*route.Latency, &f.pos)
}

// newFlow returns a blank flow: a delivered one, with its links storage,
// when there is one.
func (n *Network) newFlow() *flow {
	k := len(n.free)
	if k == 0 {
		return new(flow)
	}
	f := n.free[k-1]
	n.free = n.free[:k-1]
	*f = flow{route: platform.Route{Links: f.route.Links[:0]}}
	return f
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
// from the current date on, exactly (see setCapacity). The platform's
// Link.Bandwidth is untouched — it stays the immutable nominal description
// (shared across concurrent simulations of the same platform), while the
// effective capacity lives in this network's LMM constraint.
//
// Setting a capacity of zero fails the link: any flow crossing it is
// allocated rate 0 and the simulation panics loudly with a *StallError —
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
	n.setCapacity(n.constraint(l), bw)
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

// Advance implements simix.Model: promotes flows whose latency phase ends by
// date to, completes flows whose bytes have drained, and reshares the
// touched components.
func (n *Network) Advance(to core.Time) {
	if !n.popDue(to) {
		return
	}
	// Promote in start order so LMM variables are created in the order the
	// scan implementation created them (variable serials seed component
	// ordering, so this keeps allocations bit-identical).
	sortBySeq(n.starting)
	for _, f := range n.starting {
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
			n.stamp(f, to)
		}
	}
	n.complete(to)
	// Every future of this step has been fulfilled and its callbacks have
	// returned; a flow one of them started took an object freed earlier.
	n.free = append(n.free, n.completed...)
	if n.Contention {
		n.reshare(to)
	}
}
