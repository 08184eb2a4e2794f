package simix

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"smpigo/internal/core"
)

func TestSingleActorRunsToCompletion(t *testing.T) {
	k := New()
	ran := false
	k.Spawn("a", func(p *Proc) { ran = true })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("actor body did not run")
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	k := New()
	var at core.Time
	k.Spawn("sleeper", func(p *Proc) {
		p.sleep(1.5)
		at = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 1.5 {
		t.Errorf("woke at %v, want 1.5", at)
	}
	if k.Now() != 1.5 {
		t.Errorf("kernel clock %v, want 1.5", k.Now())
	}
}

func TestSequentialInterleaving(t *testing.T) {
	// Two actors sleeping different amounts must interleave in simulated
	// time order, not spawn order.
	k := New()
	var order []string
	k.Spawn("late", func(p *Proc) {
		p.sleep(2)
		order = append(order, "late")
	})
	k.Spawn("early", func(p *Proc) {
		p.sleep(1)
		order = append(order, "early")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "early" || order[1] != "late" {
		t.Errorf("order = %v", order)
	}
}

func TestFutureHandoffBetweenActors(t *testing.T) {
	k := New()
	f := NewFuture()
	woke := core.Time(-1)
	k.Spawn("consumer", func(p *Proc) {
		p.Wait(f)
		woke = p.Now()
	})
	k.Spawn("producer", func(p *Proc) {
		p.sleep(1)
		k.Fulfill(f)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 1 || !f.Done() {
		t.Errorf("consumer woke at %v (done %v), want 1", woke, f.Done())
	}
}

func TestWaitOnFulfilledFutureDoesNotBlock(t *testing.T) {
	k := New()
	f := NewFuture()
	k.Fulfill(f)
	returned := false
	k.Spawn("a", func(p *Proc) {
		p.Wait(f)
		returned = p.Now() == 0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !returned {
		t.Error("Wait on a fulfilled future did not return at once")
	}
}

func TestWaitAnyReturnsLowestReadyIndex(t *testing.T) {
	k := New()
	f1, f2, f3 := NewFuture(), NewFuture(), NewFuture()
	idx := -1
	k.Spawn("waiter", func(p *Proc) {
		idx = p.WaitAny([]*Future{f1, f2, f3})
	})
	k.Spawn("producer", func(p *Proc) {
		p.sleep(1)
		k.Fulfill(f3)
		k.Fulfill(f2)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Errorf("WaitAny = %d, want 1", idx)
	}
}

func TestWaitAnyEmptyPanics(t *testing.T) {
	k := New()
	k.Spawn("bad", func(p *Proc) { p.WaitAny(nil) })
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("want panic error, got %v", err)
	}
}

func TestWaitAllWithNils(t *testing.T) {
	k := New()
	f1, f2 := NewFuture(), NewFuture()
	done := false
	k.Spawn("w", func(p *Proc) {
		p.waitAll([]*Future{f1, nil, f2})
		done = true
	})
	k.Spawn("p", func(p *Proc) {
		p.sleep(1)
		k.Fulfill(f1)
		p.sleep(1)
		k.Fulfill(f2)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Error("WaitAll never returned")
	}
}

func TestDeadlockDetected(t *testing.T) {
	k := New()
	k.Spawn("stuck", func(p *Proc) { p.Wait(NewFuture()) })
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("want deadlock error, got %v", err)
	}
	if err != nil && !strings.Contains(err.Error(), "stuck") {
		t.Errorf("deadlock error should name the actor: %v", err)
	}
}

func TestActorPanicSurfacesAsError(t *testing.T) {
	k := New()
	k.Spawn("boom", func(p *Proc) { panic("kaboom") })
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("want panic error, got %v", err)
	}
}

func TestSpawnFromActor(t *testing.T) {
	k := New()
	var childRan bool
	k.Spawn("parent", func(p *Proc) {
		f := NewFuture()
		k.Spawn("child", func(c *Proc) {
			c.sleep(1)
			childRan = true
			k.Fulfill(f)
		})
		p.Wait(f)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Error("child never ran")
	}
}

// faultModel panics with a typed error at its first time step, as a model
// that finds itself unable to go on (surf.StallError) does. The step runs on
// the goroutine of whichever actor blocked or exited last.
type faultModel struct{}

type modelFault struct{ at core.Time }

func (f *modelFault) Error() string { return fmt.Sprintf("model fault at %v", f.at) }

func (faultModel) NextEvent() core.Time { return 1 }
func (faultModel) Advance(to core.Time) { panic(&modelFault{at: to}) }

// TestFailedRunsLeaveNoGoroutine fails 50 runs of each kind with one actor
// parked in Wait and one spawned but, in the actor panic case, never
// started: every actor goroutine ends with its run, after its defers ran.
// In the model panic cases the failing step runs on an actor's goroutine —
// one that blocked, or one that exited — and the model's typed error stays
// reachable from Run's.
func TestFailedRunsLeaveNoGoroutine(t *testing.T) {
	for _, tc := range []struct {
		name        string
		arm         func(*Kernel)
		modelPanics bool
	}{
		{"deadlock", func(*Kernel) {}, false},
		{"actor panic", func(k *Kernel) { k.Spawn("boom", func(*Proc) { panic("kaboom") }) }, false},
		{"model panic", func(k *Kernel) { k.AddModel(faultModel{}) }, true},
		{"model panic on exit", func(k *Kernel) {
			k.AddModel(faultModel{})
			// Queued again behind "late", it is the last actor of the
			// round: its exit runs the step that panics.
			k.Spawn("exiting", func(p *Proc) { p.Yield() })
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			unwound := 0
			for i := 0; i < 50; i++ {
				k := New()
				k.Spawn("stuck", func(p *Proc) {
					defer func() { unwound++ }()
					p.Wait(NewFuture())
				})
				tc.arm(k)
				k.Spawn("late", func(p *Proc) { p.Wait(NewFuture()) })
				err := k.Run()
				if err == nil {
					t.Fatal("run succeeded")
				}
				var fault *modelFault
				if tc.modelPanics && (!strings.Contains(err.Error(), "simix: kernel panicked") || !errors.As(err, &fault) || fault.at != 1) {
					t.Fatalf("want the model's fault at 1 as a kernel panic, got %v", err)
				}
			}
			if unwound != 50 {
				t.Errorf("%d of 50 parked actors ran their defers", unwound)
			}
			if n := goroutinesSettle(baseline); n > baseline {
				t.Errorf("%d goroutines after 50 failed runs, %d before", n, baseline)
			}
		})
	}
}

// goroutinesSettle gives exiting goroutines a moment to end and returns
// the goroutine count, as soon as it is at most baseline.
func goroutinesSettle(baseline int) int {
	for i := 0; i < 200 && runtime.NumGoroutine() > baseline; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	return runtime.NumGoroutine()
}

func TestManyActorsDeterministicOrder(t *testing.T) {
	run := func() []string {
		k := New()
		var order []string
		for i := 0; i < 20; i++ {
			name := string(rune('a' + i))
			delay := core.Time((i * 7) % 13)
			k.Spawn(name, func(p *Proc) {
				p.sleep(delay)
				order = append(order, p.name())
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		if got := run(); strings.Join(got, "") != strings.Join(first, "") {
			t.Fatalf("non-deterministic order: %v vs %v", got, first)
		}
	}
}

func TestYieldCooperative(t *testing.T) {
	k := New()
	var order []string
	k.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	k.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := "a1,b1,a2"
	if got := strings.Join(order, ","); got != want {
		t.Errorf("order = %s, want %s", got, want)
	}
}

// TestFulfillWakesInRegistrationOrderWithinTheRound pins what a future's
// inline first waiter and callback, and the index-drained run queue, must
// not change: waiters wake and callbacks run in registration order, and an
// actor woken during a round runs in that round, behind those already
// queued.
func TestFulfillWakesInRegistrationOrderWithinTheRound(t *testing.T) {
	k := New()
	k.Stats = new(Stats)
	f := NewFuture()
	var order []string
	for _, name := range []string{"w1", "w2", "w3"} {
		k.Spawn(name, func(p *Proc) {
			p.Wait(f)
			order = append(order, p.name())
		})
	}
	k.Spawn("a", func(p *Proc) {
		p.Yield() // the waiters have registered, and "b" is queued ahead of them
		for _, name := range []string{"cb1", "cb2", "cb3"} {
			k.OnFulfill(f, func() { order = append(order, name) })
		}
		k.Fulfill(f)
		order = append(order, "a")
	})
	k.Spawn("b", func(p *Proc) {
		p.Yield()
		order = append(order, "b")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := "cb1,cb2,cb3,a,b,w1,w2,w3"
	if got := strings.Join(order, ","); got != want {
		t.Errorf("order = %s, want %s", got, want)
	}
	if k.Stats.Rounds != 0 {
		t.Errorf("the clock advanced %d times, want everything in the first round", k.Stats.Rounds)
	}
}

// TestSleepFutureIsReused: consecutive sleeps of one actor re-arm the same
// future, each for its own duration.
func TestSleepFutureIsReused(t *testing.T) {
	k := New()
	var woke []core.Time
	a := k.Spawn("a", func(p *Proc) {
		for _, d := range []core.Duration{3, 0, 2} {
			p.sleep(d)
			woke = append(woke, p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 3 || woke[0] != 3 || woke[1] != 3 || woke[2] != 5 || !a.sleep.Done() {
		t.Errorf("woke at %v, want [3 3 5]", woke)
	}
}

func TestFulfillAtPastClampedToNow(t *testing.T) {
	k := New()
	var woke core.Time
	k.Spawn("a", func(p *Proc) {
		p.sleep(5)
		f := NewFuture()
		k.FulfillAt(f, 1) // in the past
		p.Wait(f)
		woke = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 5 {
		t.Errorf("woke at %v, want 5 (no time travel)", woke)
	}
}

// TestDoubleFulfillKeepsFirstValue: the first fulfillment stands. A second
// Fulfill, or a pending FulfillAt timer firing later, runs no callback again.
func TestDoubleFulfillKeepsFirstValue(t *testing.T) {
	k := New()
	f := NewFuture()
	var fired []core.Time
	k.OnFulfill(f, func() { fired = append(fired, k.Now()) })
	k.FulfillAt(f, 5)
	k.Spawn("a", func(p *Proc) {
		p.sleep(1)
		k.Fulfill(f)
		k.Fulfill(f)
		p.sleep(9)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != 1 {
		t.Errorf("callback fired at %v, want once at 1", fired)
	}
}

// A model that completes one activity at a fixed date, to exercise the
// Model plumbing.
type stubModel struct {
	k    *Kernel
	at   core.Time
	f    *Future
	used bool
}

func (m *stubModel) NextEvent() core.Time {
	if m.used {
		return core.TimeForever
	}
	return m.at
}

func (m *stubModel) Advance(to core.Time) {
	if !m.used && to >= m.at {
		m.used = true
		m.k.Fulfill(m.f)
	}
}

func TestModelDrivesCompletion(t *testing.T) {
	k := New()
	f := NewFuture()
	k.AddModel(&stubModel{k: k, at: 3, f: f})
	var at core.Time
	k.Spawn("a", func(p *Proc) {
		p.Wait(f)
		at = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !f.Done() || at != 3 {
		t.Errorf("woke at %v (done %v), want 3", at, f.Done())
	}
}

// queueModel fulfills each scheduled future at its date; futures due at one
// date fulfill in scheduling order.
type queueModel struct {
	k  *Kernel
	at []core.Time
	fs []*Future
}

func (m *queueModel) schedule(f *Future, t core.Time) {
	m.at = append(m.at, t)
	m.fs = append(m.fs, f)
}

func (m *queueModel) NextEvent() core.Time {
	next := core.TimeForever
	for _, t := range m.at {
		if t < next {
			next = t
		}
	}
	return next
}

func (m *queueModel) Advance(to core.Time) {
	for i := 0; i < len(m.at); {
		if m.at[i] > to {
			i++
			continue
		}
		f := m.fs[i]
		m.at = append(m.at[:i], m.at[i+1:]...)
		m.fs = append(m.fs[:i], m.fs[i+1:]...)
		m.k.Fulfill(f)
	}
}

// TestDispatchOrderPinned records the simulated date and the actor at every
// resumption of a scenario that mixes every way an actor blocks, wakes,
// spawns and exits, and compares it, with the kernel's counters, against a
// literal: the order in which the kernel dispatches actors is part of every
// simulated number above it.
func TestDispatchOrderPinned(t *testing.T) {
	k := New()
	k.Stats = new(Stats)
	m := &queueModel{k: k}
	k.AddModel(m)

	var got []string
	rec := func(p *Proc) { got = append(got, fmt.Sprintf("%g %s", float64(p.Now()), p.name())) }
	gate, cbDone := NewFuture(), NewFuture()
	mf := []*Future{NewFuture(), NewFuture(), NewFuture()}
	m.schedule(mf[0], 1.5)
	m.schedule(mf[1], 3)
	m.schedule(mf[2], 3)

	k.Spawn("root", func(p *Proc) {
		rec(p)
		k.Spawn("child0", func(p *Proc) {
			rec(p)
			p.sleep(1)
			rec(p)
			k.Spawn("grandchild", func(p *Proc) {
				rec(p)
				p.waitAll([]*Future{mf[1], gate})
				rec(p)
			})
		})
		k.Spawn("child1", func(p *Proc) {
			rec(p)
			p.Wait(gate)
			rec(p)
		})
		p.Yield()
		rec(p)
		p.sleep(1)
		rec(p)
	})
	k.Spawn("yielder", func(p *Proc) {
		rec(p)
		for i := 0; i < 3; i++ {
			p.Yield()
			rec(p)
		}
	})
	k.Spawn("sleeper", func(p *Proc) {
		rec(p)
		for _, d := range []core.Duration{2, 0, 5, 0} {
			p.sleep(d)
			rec(p)
		}
	})
	k.Spawn("napper", func(p *Proc) {
		rec(p)
		p.sleep(0.5)
		rec(p)
	})
	k.Spawn("any", func(p *Proc) {
		rec(p)
		i := p.WaitAny([]*Future{mf[1], gate, nil})
		rec(p)
		got = append(got, fmt.Sprintf("any woke on %d", i))
	})
	k.Spawn("all", func(p *Proc) {
		rec(p)
		p.waitAll([]*Future{mf[0], nil, mf[2]})
		rec(p)
	})
	k.Spawn("model", func(p *Proc) {
		rec(p)
		p.Wait(mf[0])
		rec(p)
		f := NewFuture()
		m.schedule(f, p.Now()+1)
		p.Wait(f)
		rec(p)
	})
	k.Spawn("timer", func(p *Proc) {
		rec(p)
		k.FulfillAt(gate, 2)
		p.Wait(gate)
		rec(p)
	})
	k.Spawn("callback", func(p *Proc) {
		rec(p)
		k.OnFulfill(mf[0], func() {
			got = append(got, fmt.Sprintf("%g callback fires", float64(k.Now())))
			k.Spawn("cb-child", func(p *Proc) {
				rec(p)
				p.Yield()
				rec(p)
				p.sleep(0.25)
				rec(p)
			})
			k.Fulfill(cbDone)
		})
		p.Wait(cbDone)
		rec(p)
	})
	k.Spawn("cb-waiter", func(p *Proc) {
		rec(p)
		p.Wait(cbDone)
		rec(p)
		p.Yield()
		rec(p)
	})
	k.Spawn("quitter", func(p *Proc) { rec(p) })
	k.Spawn("lingerer", func(p *Proc) {
		rec(p)
		p.Yield()
		rec(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	got = append(got, fmt.Sprintf("stats %+v", *k.Stats))

	want := []string{
		"0 root", "0 yielder", "0 sleeper", "0 napper", "0 any", "0 all",
		"0 model", "0 timer", "0 callback", "0 cb-waiter", "0 quitter",
		"0 lingerer", "0 child0", "0 child1", "0 root", "0 yielder",
		"0 lingerer", "0 yielder", "0 yielder",
		"0.5 napper",
		"1 child0", "1 root", "1 grandchild",
		"1.5 callback fires", "1.5 model", "1.5 cb-child", "1.5 callback",
		"1.5 cb-waiter", "1.5 cb-child", "1.5 cb-waiter",
		"1.75 cb-child",
		"2 sleeper", "2 any", "any woke on 1", "2 timer", "2 child1", "2 sleeper",
		"2.5 model",
		"3 grandchild", "3 all",
		"7 sleeper", "7 sleeper",
		"stats {Rounds:10 ActorRuns:41 TimerFires:9}",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("dispatch order moved; got:\n%#v", got)
	}
}
