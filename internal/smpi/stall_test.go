package smpi

import (
	"errors"
	"path"
	"testing"

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
