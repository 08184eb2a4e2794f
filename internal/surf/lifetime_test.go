package surf

import (
	"math"
	"testing"

	"smpigo/internal/core"
	"smpigo/internal/lmm"
	"smpigo/internal/platform"
	"smpigo/internal/platform/platformtest"
	"smpigo/internal/simix"
	"smpigo/internal/surf/actionheap"
)

// trunkPlatform builds n source hosts that all reach one sink over a single
// shared 1 MB/s, 1 ms link, and returns the route of each, plus the route of
// one more host that has a link of the same kind to itself.
func trunkPlatform(n int) (routes []platform.Route, side platform.Route) {
	f := platformtest.New("trunk")
	sink := f.Platform.NewHost(1e9)
	route := func(link *platform.Link) platform.Route {
		src := f.Platform.NewHost(1e9)
		f.Route(src, sink, link)
		return f.Platform.Route(src, sink)
	}
	trunk := f.Link("trunk", 1e6, 1e-3, lmm.Shared)
	for i := 0; i < n; i++ {
		routes = append(routes, route(trunk))
	}
	return routes, route(f.Link("side", 1e6, 1e-3, lmm.Shared))
}

// TestRecycledFlowHasNoEntry reuses a flow object that carried an earlier
// flow restamped several times. Flows 0 and 1 share the trunk, flow 2
// arrives and leaves, and each change of the sharing restamps the others:
// flow 0 is stamped three times, each stamp re-keying its one heap entry,
// and it completes at 2.501 s. Its object then carries flow 3 from 2.6 s
// on, which flow 4 restamps once when it joins the sharing at 2.6015 s. A
// delivered flow has no heap entry, so the recycled object starts with
// none, and nothing of flow 0 is left to be taken for an event of flow 3.
// The delivery dates, the number of pushes (Push and Update) and pops, and
// the number of kernel rounds are those of the same schedule before flows
// were recycled; the heap never holds more than one entry per flow in
// flight.
func TestRecycledFlowHasNoEntry(t *testing.T) {
	routes, side := trunkPlatform(3)
	k := simix.New()
	var rounds simix.Stats
	k.Stats = &rounds
	n := NewNetwork(k, Ideal())
	var heap actionheap.Stats
	n.Instrument(nil, nil, &heap, nil)
	k.AddModel(n)

	done := make([]core.Time, 6)
	transfer := func(pr *simix.Proc, flow int, route platform.Route, size int64) {
		f := simix.NewFuture()
		n.StartFlow(route, size, f)
		pr.Wait(f)
		done[flow] = pr.Now()
	}
	k.Spawn("a", func(pr *simix.Proc) {
		transfer(pr, 0, routes[0], 1e6)
		sleep(k, pr, 2.6-pr.Now())
		// Last freed, first reused: the object of flow 0, not of flow 2.
		first := n.free[len(n.free)-1]
		if first.pos != 0 {
			t.Errorf("the flow delivered at 2.501 s still holds heap entry %d", first.pos)
		}
		f := simix.NewFuture()
		n.StartFlow(routes[0], 1e5, f)
		if len(n.free) != 1 || first.future != f {
			t.Errorf("the flow started at 2.6 s did not reuse the object freed at 2.501 s (%d free)", len(n.free))
		}
		pr.Wait(f)
		done[3] = pr.Now()
	})
	k.Spawn("b", func(pr *simix.Proc) { transfer(pr, 1, routes[1], 2e6) })
	k.Spawn("side", func(pr *simix.Proc) { transfer(pr, 5, side, 2699e3) })
	k.Spawn("c", func(pr *simix.Proc) {
		sleep(k, pr, 0.5)
		transfer(pr, 2, routes[2], 5e5)
		sleep(k, pr, 2.6005-pr.Now())
		transfer(pr, 4, routes[2], 1e5)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, want := range []core.Time{2.501, 3.701, 2.001, 2.90075, 2.90125, 2.7} {
		if math.Abs(float64(done[i]-want)) > 1e-9 {
			t.Errorf("flow %d delivered at %v, want %v", i, done[i], want)
		}
	}
	if want := (actionheap.Stats{Pushes: 23, Pops: 12, MaxLen: 4}); heap != want {
		t.Errorf("heap counters %+v, want %+v", heap, want)
	}
	if rounds.Rounds != 13 {
		t.Errorf("%d kernel rounds, want 13", rounds.Rounds)
	}
	if len(n.free) != 4 {
		t.Errorf("%d flow objects carried 6 flows, want 4", len(n.free))
	}
}

// TestFlowStartedFromCallbackGetsAnotherObject: a flow started from inside
// the Fulfill of a completing flow's future must not be handed the object
// of the flow that is completing, whose bookkeeping is still under way.
func TestFlowStartedFromCallbackGetsAnotherObject(t *testing.T) {
	routes, _ := trunkPlatform(1)
	k := simix.New()
	n := NewNetwork(k, Ideal())
	k.AddModel(n)

	var done core.Time
	k.Spawn("a", func(pr *simix.Proc) {
		// Two objects: one for the flow that will complete, one free for
		// the flow its callback starts.
		warm := []*simix.Future{simix.NewFuture(), simix.NewFuture()}
		n.StartFlow(routes[0], 1e3, warm[0])
		n.StartFlow(routes[0], 1e3, warm[1])
		pr.Wait(warm[0])
		pr.Wait(warm[1])

		first, second := simix.NewFuture(), simix.NewFuture()
		n.StartFlow(routes[0], 1e6, first)
		k.OnFulfill(first, func() {
			var completing *flow
			for _, f := range n.completed {
				if f.future == first {
					completing = f
				}
			}
			n.StartFlow(routes[0], 1e6, second)
			if completing == nil || completing.future != first {
				t.Error("the flow started from the callback took the completing flow's object")
			}
			if len(n.free) != 0 {
				t.Errorf("%d free objects after the callback's flow took one, want 0", len(n.free))
			}
		})
		pr.Wait(second)
		done = pr.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Two 1 KB flows sharing the trunk, then twice (1 ms + 1 MB at 1 MB/s),
	// back to back.
	if want := core.Time(0.003 + 2*1.001); math.Abs(float64(done-want)) > 1e-9 {
		t.Errorf("second flow delivered at %v, want %v", done, want)
	}
	if len(n.free) != 2 {
		t.Errorf("%d flow objects carried 4 flows, want 2", len(n.free))
	}
}
