package simix

import (
	"errors"
	"fmt"
	"sort"

	"smpigo/internal/core"
	"smpigo/internal/surf/actionheap"
)

// Model is a pluggable resource model (network, CPU, ...). The kernel calls
// NextEvent to learn the model's earliest pending completion date
// (core.TimeForever if none) and Advance to move the model's internal state
// forward; Advance must fulfill the futures of every activity completing at
// or before the target date.
//
// The kernel step contract, which the models' sublinear event paths build
// on:
//
//   - Once per scheduling round — after every ready actor has run and
//     blocked — the kernel polls each model's NextEvent exactly once,
//     advances the clock to the minimum across models and timers, then
//     calls every model's Advance with that date, in registration order.
//   - NextEvent must never return a date earlier than the last Advance
//     target (the kernel treats an event in the past as a fatal model bug).
//   - Advance is prefix-monotone: processing everything up to t1 and then
//     up to t2 >= t1 must be equivalent to processing up to t2 directly.
//     The kernel relies on this to hand every model the same step date
//     regardless of which model produced it.
//   - Fulfill runs OnFulfill callbacks synchronously, so an Advance that
//     completes an activity may re-enter a model (a callback starting a new
//     flow or compute task at the current date). Models must accept
//     starting activities mid-Advance; the new activity's events belong to
//     later dates and fire on subsequent steps.
type Model interface {
	NextEvent() core.Time
	Advance(to core.Time)
}

// Future is a one-shot completion handle. Models fulfill futures; actors
// block on them via Proc.Wait and friends.
//
// The zero value is an unfulfilled future, so an owner may embed a Future by
// value and re-arm it for its next life by assigning Future{} — once the
// previous life's Fulfill has run its last callback, which is the last time
// the kernel touches it. The first waiter and the first callback are stored
// inline: nearly every future has at most one of each (the actor blocked on
// it, the delivery hook of a message), so waiting on a future allocates
// nothing, re-armed or not.
type Future struct {
	done bool

	waiter    *Actor   // first registered waiter
	waiters   []*Actor // later ones, in registration order
	callback  func()
	callbacks []func()
}

// NewFuture returns an unfulfilled future.
func NewFuture() *Future { return &Future{} }

// Done reports whether the future has been fulfilled.
func (f *Future) Done() bool { return f.done }

// Actor is a simulated process. Application code never touches Actor
// directly; it receives a *Proc context instead.
type Actor struct {
	Name string

	kernel *Kernel
	resume chan struct{}
	proc   *Proc
	done   bool
	queued bool
}

// Proc is the execution context handed to actor functions. All methods must
// be called from the actor's own goroutine.
type Proc struct {
	actor *Actor
}

// Stats accumulates kernel counters when attached via the Stats field:
// scheduling rounds (clock advances), actor dispatches, and timer
// fulfillments. Every hook is a nil check; a kernel without stats attached
// pays nothing.
type Stats struct {
	// Rounds counts clock advances — one per scheduling round in which every
	// actor was blocked and time moved to the next event.
	Rounds uint64
	// ActorRuns counts dispatches (an actor may be dispatched many times per
	// round as futures fulfill). An actor dispatched as its own successor
	// continues without a goroutine switch, and still counts.
	ActorRuns uint64
	// TimerFires counts futures fulfilled by the built-in timer queue.
	TimerFires uint64
}

// Kernel drives the simulation: it owns the clock, the actor run queue, the
// timer queue, and the registered resource models.
type Kernel struct {
	now    core.Time
	models []Model
	// timers is the built-in timer queue, on the same heap implementation as
	// the resource models' event paths (date order, FIFO on ties by push
	// sequence). Timers are never re-keyed, so every pushed timer fires.
	timers actionheap.Heap[*Future]

	// Stats, when non-nil, accumulates kernel counters.
	Stats *Stats

	actors   []*Actor
	runq     []*Actor
	pos      int // next runq index to dispatch
	live     int
	done     chan struct{} // the baton back to Run: the run is over
	running  bool
	aborting bool // Run returned early: a resumed actor unwinds (see yield)
	failure  error
}

// New returns an empty kernel at simulated time zero.
func New() *Kernel {
	return &Kernel{done: make(chan struct{})}
}

// Now returns the current simulated time.
func (k *Kernel) Now() core.Time { return k.now }

// AddModel registers a resource model with the kernel.
func (k *Kernel) AddModel(m Model) { k.models = append(k.models, m) }

// Spawn creates an actor running fn and schedules it. It may be called
// before Run or from a running actor.
func (k *Kernel) Spawn(name string, fn func(*Proc)) *Actor {
	a := &Actor{
		Name:   name,
		kernel: k,
		resume: make(chan struct{}),
	}
	a.proc = &Proc{actor: a}
	k.actors = append(k.actors, a)
	k.live++
	go func() {
		<-a.resume
		defer func() {
			if r := recover(); r != nil && r != errAborted && k.failure == nil {
				k.failure = fmt.Errorf("actor %q panicked: %w", a.Name, panicError(r))
			}
			a.done = true
			k.live--
			var next *Actor
			if !k.aborting && k.failure == nil {
				next = k.dispatch()
			}
			k.handOff(next)
		}()
		if !k.aborting {
			fn(a.proc)
		}
	}()
	k.enqueue(a)
	return a
}

// panicError returns a recovered panic value as an error to wrap: a typed
// error a model panicked with (surf.StallError) stays reachable by errors.As
// from Run's result; any other value is formatted as before.
func panicError(r any) error {
	if err, ok := r.(error); ok {
		return err
	}
	return fmt.Errorf("%v", r)
}

func (k *Kernel) enqueue(a *Actor) {
	if a.queued || a.done {
		return
	}
	a.queued = true
	k.runq = append(k.runq, a)
}

// Fulfill completes f, waking every actor blocked on it. It is safe to call
// from models (between scheduling rounds) and from actors (the awakened
// actor runs later in the same round). Fulfilling a done future does
// nothing.
func (k *Kernel) Fulfill(f *Future) {
	if f.done {
		return
	}
	f.done = true
	if f.waiter != nil {
		k.enqueue(f.waiter)
		for _, a := range f.waiters {
			k.enqueue(a)
		}
		f.waiter, f.waiters = nil, nil
	}
	// Detach the callbacks before running any: the last one may recycle f's
	// owner, f included.
	cb, cbs := f.callback, f.callbacks
	f.callback, f.callbacks = nil, nil
	if cb != nil {
		cb()
		for _, cb := range cbs {
			cb()
		}
	}
}

// addWaiter registers a to be woken by f's Fulfill.
func (f *Future) addWaiter(a *Actor) {
	if f.waiter == nil {
		f.waiter = a
	} else {
		f.waiters = append(f.waiters, a)
	}
}

// OnFulfill registers fn to run when f is fulfilled (immediately if it
// already is). Callbacks run synchronously inside Fulfill, at the fulfilled
// simulated date; they may fulfill other futures or start new activities.
func (k *Kernel) OnFulfill(f *Future, fn func()) {
	if f.done {
		fn()
		return
	}
	if f.callback == nil {
		f.callback = fn
	} else {
		f.callbacks = append(f.callbacks, fn)
	}
}

// FulfillAt schedules f to be fulfilled at absolute date t, using the
// kernel's built-in timer queue.
func (k *Kernel) FulfillAt(f *Future, t core.Time) {
	if t < k.now {
		t = k.now
	}
	k.timers.Push(f, t, nil)
}

// Run executes the simulation until every actor has terminated. It returns
// an error if an actor panicked, or if live actors remain but no model has
// a pending event (deadlock).
//
// There is no scheduler goroutine: the kernel loop is dispatch, run by
// whichever goroutine holds the baton — Run to start, then each actor as it
// blocks or exits, handing the baton straight to the next actor to run. The
// baton comes back to Run only when the run is over.
func (k *Kernel) Run() error {
	if k.running {
		return fmt.Errorf("simix: kernel already running")
	}
	k.running = true
	defer func() { k.running = false }()
	if next := k.dispatch(); next != nil {
		next.resume <- struct{}{}
		<-k.done
	}
	// A failed run unwinds every parked actor: no goroutine outlives it.
	for i := 0; k.failure != nil && i < len(k.actors); i++ {
		if a := k.actors[i]; !a.done {
			k.aborting = true
			a.resume <- struct{}{}
			<-k.done
		}
	}
	return k.failure
}

// handOff passes the baton to a, or back to Run when a is nil.
func (k *Kernel) handOff(a *Actor) {
	if a == nil {
		k.done <- struct{}{}
	} else {
		a.resume <- struct{}{}
	}
}

// dispatch runs the kernel loop until an actor is ready and returns it,
// counted as one actor run, or returns nil when the run is over, with
// k.failure saying why if it failed. Panics raised by model code and
// completion callbacks during a time step surface as k.failure rather than
// crashing the goroutine that holds the baton.
func (k *Kernel) dispatch() *Actor {
	defer func() {
		if r := recover(); r != nil {
			k.failure = fmt.Errorf("simix: kernel panicked: %w", panicError(r))
		}
	}()
	for {
		// Scheduling round: dispatch every ready actor, one at a time. The
		// queue is drained by index — an actor enqueued during the round runs
		// in it, after those already queued — and then emptied in place, so
		// its backing array serves every round.
		for k.pos < len(k.runq) {
			a := k.runq[k.pos]
			k.pos++
			a.queued = false
			if a.done {
				continue
			}
			if k.Stats != nil {
				k.Stats.ActorRuns++
			}
			return a
		}
		k.runq, k.pos = k.runq[:0], 0

		if k.live == 0 {
			return nil
		}

		// All actors are blocked: advance time to the next event.
		next := k.timers.NextDue()
		for _, m := range k.models {
			if t := m.NextEvent(); t < next {
				next = t
			}
		}
		switch {
		case next == core.TimeForever:
			k.failure = k.deadlockError()
		case next < k.now:
			k.failure = fmt.Errorf("simix: model scheduled event in the past (%v < %v)", next, k.now)
		}
		if k.failure != nil {
			return nil
		}
		k.now = next
		if k.Stats != nil {
			k.Stats.Rounds++
		}

		for {
			f, due, ok := k.timers.Peek()
			if !ok || due > k.now {
				break
			}
			k.timers.Pop()
			if k.Stats != nil {
				k.Stats.TimerFires++
			}
			k.Fulfill(f)
		}
		for _, m := range k.models {
			m.Advance(k.now)
		}
	}
}

func (k *Kernel) deadlockError() error {
	var blocked []string
	for _, a := range k.actors {
		if !a.done {
			blocked = append(blocked, a.Name)
		}
	}
	sort.Strings(blocked)
	return fmt.Errorf("simix: deadlock, %d actor(s) blocked forever: %v", len(blocked), blocked)
}

// --- Proc (actor-side) API ---

// errAborted unwinds an actor resumed after its run failed (see Run).
var errAborted = errors.New("simix: run aborted")

// yield suspends the actor: it dispatches the next actor to run itself and
// hands it the baton, then parks until it is dispatched again. When it is
// its own successor, it continues at once, without a goroutine switch.
func (p *Proc) yield() {
	k := p.actor.kernel
	if !k.aborting {
		if next := k.dispatch(); next != p.actor {
			k.handOff(next)
			<-p.actor.resume
		}
	}
	if k.aborting {
		panic(errAborted)
	}
}

// Now returns the current simulated time.
func (p *Proc) Now() core.Time { return p.actor.kernel.now }

// Yield lets other ready actors run before this one continues; simulated
// time does not advance. Mainly useful in tests and fairness-sensitive code.
func (p *Proc) Yield() {
	p.actor.kernel.enqueue(p.actor)
	p.yield()
}

// Wait blocks until f is fulfilled.
func (p *Proc) Wait(f *Future) {
	for !f.done {
		f.addWaiter(p.actor)
		p.yield()
	}
}

// WaitAny blocks until at least one future in fs is fulfilled and returns
// the index of the first fulfilled one (lowest index wins). It panics if fs
// is empty.
func (p *Proc) WaitAny(fs []*Future) int {
	if len(fs) == 0 {
		panic("simix: WaitAny on empty set")
	}
	for {
		for i, f := range fs {
			if f != nil && f.done {
				return i
			}
		}
		for _, f := range fs {
			if f != nil {
				f.addWaiter(p.actor)
			}
		}
		p.yield()
	}
}
