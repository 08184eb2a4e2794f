package simix

import (
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
		p.Sleep(1.5)
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
		p.Sleep(2)
		order = append(order, "late")
	})
	k.Spawn("early", func(p *Proc) {
		p.Sleep(1)
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
		p.Sleep(1)
		p.Kernel().Fulfill(f)
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
		p.Sleep(1)
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
		p.WaitAll([]*Future{f1, nil, f2})
		done = true
	})
	k.Spawn("p", func(p *Proc) {
		p.Sleep(1)
		k.Fulfill(f1)
		p.Sleep(1)
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
			c.Sleep(1)
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

func TestDeadlineExceeded(t *testing.T) {
	k := New()
	k.SetDeadline(10)
	k.Spawn("slow", func(p *Proc) { p.Sleep(100) })
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Errorf("want deadline error, got %v", err)
	}
}

// TestFailedRunsLeaveNoGoroutine fails 50 runs of each kind with one actor
// parked in Wait and one spawned but, in the panic case, never started:
// every actor goroutine ends with its run, after its defers ran.
func TestFailedRunsLeaveNoGoroutine(t *testing.T) {
	for _, tc := range []struct {
		name string
		arm  func(*Kernel)
	}{
		{"deadlock", func(*Kernel) {}},
		{"deadline", func(k *Kernel) {
			k.SetDeadline(10)
			k.Spawn("slow", func(p *Proc) { p.Sleep(100) })
		}},
		{"actor panic", func(k *Kernel) { k.Spawn("boom", func(*Proc) { panic("kaboom") }) }},
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
				if err := k.Run(); err == nil {
					t.Fatal("run succeeded")
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
				p.Sleep(delay)
				order = append(order, p.Name())
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
			order = append(order, p.Name())
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
			p.Sleep(d)
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
		p.Sleep(5)
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
		p.Sleep(1)
		k.Fulfill(f)
		k.Fulfill(f)
		p.Sleep(9)
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
