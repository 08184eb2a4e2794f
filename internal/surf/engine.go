package surf

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"smpigo/internal/core"
	"smpigo/internal/lmm"
	"smpigo/internal/simix"
	"smpigo/internal/surf/actionheap"
)

// Tolerances of the heap pop loop. They are the historical values of the
// linear-scan implementation, so event timing is unchanged: a flow leaves
// its latency phase within promoteTol of its latency end and completes once
// its drained remainder is within byteTol of zero; a compute task completes
// once its remainder is within flopTol of a rate-second of zero.
const (
	promoteTol core.Duration = 1e-15
	byteTol                  = 1e-6
	flopTol                  = 1e-9
)

// action is the lazily-drained state every flow and compute task embeds: an
// amount of work (bytes or flops) draining at the rate the sharing system
// last allocated. With it cpuTask fills the 64-byte allocator size class
// and flow stays in the 112-byte one (TestActionSizeClasses).
type action struct {
	future *simix.Future
	v      *lmm.Variable // Data is the owning T; nil while outside the sharing system

	// remaining is the amount left at lastSync; it drains at rate from
	// lastSync on, and is synced (drained to the current date) exactly when
	// the rate changes or an overdue heap entry must be re-stamped.
	remaining float64
	lastSync  core.Time
	rate      float64

	// seq is the start serial: events that share a date are processed in
	// start order, like the scan implementation did, so actor wakeup order
	// is unchanged.
	seq uint64
	// pos is the 1-based position of the action's heap entry, kept by the
	// heap; 0 while the action has none.
	pos int
}

func (a *action) act() *action { return a }

// drainable is what the engine needs from a model's action type beyond the
// embedded action: the three things that differ between a flow and a
// compute task.
type drainable interface {
	act() *action
	// latent reports whether the action's heap entry is a start date (a
	// flow's latency end) rather than a stamped completion date.
	latent() bool
	// record reports amount drained over (from, to] to u, for every resource
	// the action uses.
	record(u UsageRecorder, from, to core.Time, amount float64)
	// stall describes the action for the rate-0 failure.
	stall() *StallError
}

// engine is the lazily-drained sharing engine both models embed: an LMM
// system allocating rates, one min-heap holding every action's next date,
// and the event path over them (see the package comment). T is the model's
// action pointer type: what differs between the models arrives through its
// methods and the two tolerances, never as a branch. The engine is generic
// rather than built on one struct with both a route and a host, which would
// push every flow into the next allocator size class.
type engine[T drainable] struct {
	kernel *simix.Kernel
	now    core.Time
	sys    *lmm.System
	// cons holds the constraint of each resource (a link or a host) at its
	// platform ID, nil until the resource is first used. It is grown to the
	// highest ID seen, not sized to the platform: a job touches few of a
	// large platform's links.
	cons []*lmm.Constraint

	// absTol and relTol are the completion tolerance, set once by the model:
	// an action completes once its drained remainder is within
	// absTol + relTol*rate of zero.
	absTol, relTol float64

	// heap holds at most one entry per in-flight action: its start date
	// while latent, then its stamped completion date. A restamp re-keys the
	// entry in place (see actionheap).
	heap     actionheap.Heap[T]
	inFlight int
	startSeq uint64

	// Per-Advance scratch, retained across steps.
	starting  []T
	completed []T

	// Observability sinks (see Instrument). Both nil by default; every hook
	// compiles to a nil check, so an uninstrumented model pays nothing.
	stats *EventStats
	usage UsageRecorder
}

// NextEvent implements simix.Model: an O(1) peek at the earliest entry.
func (e *engine[T]) NextEvent() core.Time { return e.heap.NextDue() }

// admit counts a in flight under the next start serial.
func (e *engine[T]) admit(a T) {
	if e.stats != nil {
		e.stats.Started++
	}
	a.act().seq = e.startSeq
	e.startSeq++
	e.inFlight++
}

// drain syncs a's amount to date to at its current rate, reporting the
// drained segment to the observability sinks: the (rate x interval) amount
// the sync subtracts is exactly what every resource of the action carried
// during (lastSync, to], so usage accounting piggybacks on the sync points
// the lazy event path already visits instead of recomputing integrals.
func (e *engine[T]) drain(a T, to core.Time) {
	act := a.act()
	if e.stats != nil {
		e.stats.Syncs++
	}
	if e.usage != nil {
		if amount := act.rate * float64(to-act.lastSync); amount > 0 {
			a.record(e.usage, act.lastSync, to, amount)
		}
	}
	// The conversion rounds the product before the subtraction, so no target
	// fuses the two: every pinned timestamp has this rounding.
	act.remaining -= float64(act.rate * float64(to-act.lastSync))
	act.lastSync = to
}

// stamp records a's completion date — date at plus the time to drain the
// remaining amount at the current rate — re-keying a's heap entry, or
// pushing one if a has none. It fails loudly when a was allocated rate 0
// with work left: the amount would never drain, NextEvent would report
// TimeForever, and the simulation would hang (or deadlock-error with no
// hint of why).
func (e *engine[T]) stamp(a T, at core.Time) {
	act := a.act()
	if act.rate <= 0 && act.remaining > 0 {
		panic(a.stall())
	}
	due := at + core.Duration(act.remaining/act.rate)
	if act.pos > 0 {
		e.heap.Update(act.pos, due)
	} else {
		e.heap.Push(a, due, &act.pos)
	}
}

// StallError is the panic value of an action allocated rate 0 with work
// remaining: a flow crossing a zero-bandwidth (or failed) link, or a compute
// task on a zero-speed host. The simix kernel recovers it into the error
// Run returns, so errors.As finds it from the job boundary.
type StallError struct {
	// Links names the stalled flow's route in order; Host names the stalled
	// compute task's host. Exactly one is set.
	Links []string
	Host  string
	// Remaining is the bytes or flops left to drain.
	Remaining float64
	// Limit is the flow's rate bound, or the host's nominal speed.
	Limit float64
}

func (e *StallError) Error() string {
	if len(e.Links) == 0 {
		return fmt.Sprintf("surf: compute task with %g flops remaining on host %q allocated rate 0 (host speed %g); it would never complete",
			e.Remaining, e.Host, e.Limit)
	}
	return fmt.Sprintf("surf: flow with %g bytes remaining allocated rate 0 and would never complete; route: %s (zero-bandwidth link or zero rate bound %g)",
		e.Remaining, strings.Join(e.Links, " -> "), e.Limit)
}

// reshare recomputes rates after the set of sharing actions, or a capacity,
// changed at date to. Solving is selective: a change only dirties the LMM
// components it touches, actions in untouched components keep their rates —
// and their stamped completion dates — bit-for-bit, and only the re-solved
// variables are synced and restamped. The reshare cost scales with the
// churned components, not with the total population.
func (e *engine[T]) reshare(to core.Time) {
	e.sys.Solve()
	for _, v := range e.sys.Resolved() {
		a := v.Data.(T)
		e.drain(a, to) // drain at the outgoing rate before it changes
		a.act().rate = v.Value
		e.stamp(a, to)
	}
}

// constraint returns the constraint of resource res, whose platform ID is
// id, creating it with the given capacity and policy on first use.
func (e *engine[T]) constraint(id int, res lmm.Resource, capacity float64, policy lmm.SharingPolicy) *lmm.Constraint {
	if id >= len(e.cons) {
		e.cons = slices.Grow(e.cons, id+1-len(e.cons))
		e.cons = e.cons[:cap(e.cons)]
	}
	c := e.cons[id]
	if c == nil {
		c = e.sys.NewConstraint("", capacity, policy)
		c.Resource = res
		e.cons[id] = c
	}
	return c
}

// setCapacity changes the capacity the sharing system enforces for c from
// the current date on. Exactness across the change follows the lazy-drain
// argument: the reshare drains every re-solved action at its outgoing rate
// up to the current date before the new rate applies, so integrals and usage
// accounting see the old rate exactly until now and the new rate exactly
// after, and untouched components keep their rates and stamped dates
// bit-for-bit. The reshare is immediate: Advance early-returns on steps with
// no starts or completions, so a change fired from a timer callback would
// otherwise sit unsolved past its date.
func (e *engine[T]) setCapacity(c *lmm.Constraint, capacity float64) {
	e.now = e.kernel.Now()
	e.sys.SetCapacity(c, capacity)
	e.reshare(e.now)
}

// popDue moves the clock to date to and pops every action with an event by
// then — visiting no other — into the starting and completed scratch lists;
// it reports whether there is any.
func (e *engine[T]) popDue(to core.Time) bool {
	if to < e.now {
		return false
	}
	e.now = to
	e.starting = e.starting[:0]
	e.completed = e.completed[:0]
	for {
		a, due, ok := e.heap.Peek()
		if !ok {
			break
		}
		if a.latent() {
			if due > to+promoteTol {
				break
			}
			e.heap.Pop()
			e.starting = append(e.starting, a)
			continue
		}
		// Completion entry. The tolerance absorbs floating-point drift.
		// Unlike the scan, only surfaced entries are tolerance-checked — an
		// action within tolerance of done but stamped behind a non-qualifying
		// entry completes at its own due date, at most tolerance/rate later
		// (see ARCHITECTURE, "The event path").
		act := a.act()
		if act.remaining-float64(act.rate*float64(to-act.lastSync)) <= e.absTol+float64(e.relTol*act.rate) {
			e.heap.Pop()
			e.completed = append(e.completed, a)
			continue
		}
		if due > to {
			break
		}
		// Overdue but materially short of its amount (possible on huge
		// actions, where one ulp of the remainder exceeds the tolerance):
		// re-stamp the drained remainder, as the scan kept answering
		// now + remaining/rate. If the remainder is below the clock's
		// resolution at this date, restamping would reproduce due == to
		// forever (the scan implementation livelocked at kernel level in
		// this state) — complete instead.
		e.heap.Pop()
		e.drain(a, to)
		if to+core.Duration(act.remaining/act.rate) <= to {
			e.completed = append(e.completed, a)
			continue
		}
		if e.stats != nil {
			e.stats.Restamps++
		}
		e.stamp(a, to)
	}
	return len(e.starting) > 0 || len(e.completed) > 0
}

// sortBySeq orders simultaneous events in start order — the order the scan
// implementation processed them in.
func sortBySeq[T drainable](s []T) {
	slices.SortFunc(s, func(a, b T) int { return cmp.Compare(a.act().seq, b.act().seq) })
}

// complete delivers the completed list at date to, in start order.
func (e *engine[T]) complete(to core.Time) {
	sortBySeq(e.completed)
	for _, a := range e.completed {
		act := a.act()
		if act.v != nil {
			e.sys.RemoveVariable(act.v)
			act.v = nil
		}
		if e.stats != nil {
			e.stats.Completions++
		}
		if e.usage != nil && act.remaining > 0 {
			// The final remainder — the amount between the action's last sync
			// and delivery, within tolerance of rate x interval — closes the
			// action's segment stream at exactly its size, so per-resource
			// totals conserve the amount with no tolerance at all.
			a.record(e.usage, act.lastSync, to, act.remaining)
		}
		e.inFlight--
		e.kernel.Fulfill(act.future)
	}
}
