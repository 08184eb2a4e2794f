package smpi

import (
	"errors"
	"path"
	"runtime"
	"testing"
	"time"

	"smpigo/internal/dynamics"
	"smpigo/internal/surf"
	"smpigo/internal/topology"
)

// TestFailedLinkSurfacesTypedStall fails every trunk link of a fat-tree one
// millisecond into an alltoall. The flows crossing a trunk are allocated
// rate 0, the network model panics with a *surf.StallError inside the timer
// callback, and the kernel wraps it with %w — so the error Run returns still
// says which route died, by type and not by message text.
func TestFailedLinkSurfacesTypedStall(t *testing.T) {
	const trunk = "fattree16-l2-*"
	spec, err := topology.ParseSpec("fattree16")
	if err != nil {
		t.Fatal(err)
	}
	plat, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	sched, err := dynamics.Parse("@1ms link " + trunk + " fail")
	if err != nil {
		t.Fatal(err)
	}
	const procs, block = 16, 1 << 20
	_, err = Run(Config{Procs: procs, Platform: plat, Dynamics: sched}, func(r *Rank) {
		send := r.SharedMalloc("send", procs*block)
		recv := r.SharedMalloc("recv", procs*block)
		r.Comm().Alltoall(r, send, recv)
	})
	if err == nil {
		t.Fatal("alltoall across failed trunk links completed")
	}
	var stall *surf.StallError
	if !errors.As(err, &stall) {
		t.Fatalf("error carries no *surf.StallError: %v", err)
	}
	if stall.Remaining <= 0 || stall.Host != "" {
		t.Errorf("stall = %+v, want a flow with bytes remaining", stall)
	}
	named := false
	for _, name := range stall.Links {
		if ok, _ := path.Match(trunk, name); ok {
			named = true
		}
	}
	if !named {
		t.Errorf("stalled route %v names no failed trunk link (%s)", stall.Links, trunk)
	}
}

// TestFailedRunsLeaveNoGoroutine fails 50 runs of each kind: rank 0 panics
// while the other seven block in Recv, and a dynamics "fail" stalls an
// alltoall on a fat-tree's trunk links. Every parked rank unwinds with its
// run, so the goroutine count returns to where it was.
func TestFailedRunsLeaveNoGoroutine(t *testing.T) {
	fatTree, err := topology.FatTree16().Build()
	if err != nil {
		t.Fatal(err)
	}
	sched, err := dynamics.Parse("@1ms link fattree16-l2-* fail")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		app  func(*Rank)
	}{
		{"actor panic", testConfig(8), func(r *Rank) {
			if r.Rank() == 0 {
				panic("rank 0 fails")
			}
			r.Recv(r.Comm(), make([]byte, 8), 0, 0)
		}},
		{"stall", Config{Procs: 16, Platform: fatTree, Dynamics: sched}, func(r *Rank) {
			const block = 64 << 10
			r.Comm().Alltoall(r, r.SharedMalloc("send", 16*block), r.SharedMalloc("recv", 16*block))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			for i := 0; i < 50; i++ {
				if _, err := Run(tc.cfg, tc.app); err == nil {
					t.Fatal("run succeeded")
				}
			}
			for i := 0; i < 200 && runtime.NumGoroutine() > baseline; i++ {
				time.Sleep(5 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > baseline {
				t.Errorf("%d goroutines after 50 failed runs, %d before", n, baseline)
			}
		})
	}
}
