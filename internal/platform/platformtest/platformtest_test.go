package platformtest

import (
	"fmt"
	"strings"
	"testing"

	"smpigo/internal/core"
	"smpigo/internal/lmm"
	"smpigo/internal/platform"
)

// TestRouteIsSymmetric checks that one Route call serves both directions:
// the reverse crosses the links backward with the same latency, and the
// fixture keeps the link names it was given while deriving host names.
func TestRouteIsSymmetric(t *testing.T) {
	f := New("pair")
	a, b := f.Platform.NewHost(1e9), f.Platform.NewHost(1e9)
	l1 := f.Link("l1", 125e6, 10*core.Microsecond, lmm.Shared)
	l2 := f.Link("l2", 250e6, 5*core.Microsecond, lmm.Shared)
	f.Route(a, b, l1, l2)
	p := f.Platform

	fwd := p.Route(a, b)
	if len(fwd.Links) != 2 || fwd.Links[0] != l1 || fwd.Links[1] != l2 {
		t.Errorf("forward route wrong: %v", fwd.Links)
	}
	rev := p.Route(b, a)
	if len(rev.Links) != 2 || rev.Links[0] != l2 || rev.Links[1] != l1 {
		t.Errorf("reverse route wrong: %v", rev.Links)
	}
	if want := 15 * core.Microsecond; fwd.Latency != want || rev.Latency != want {
		t.Errorf("latencies %v, %v, want %v", fwd.Latency, rev.Latency, want)
	}
	if fwd.Bottleneck() != 125e6 {
		t.Errorf("bottleneck %v, want 125e6", fwd.Bottleneck())
	}
	if l1.Name() != "l1" || l2.Name() != "l2" {
		t.Errorf("link names = %q, %q, want l1, l2", l1.Name(), l2.Name())
	}
	if a.Name() != "pair-0" || p.Host("pair-1") != b {
		t.Errorf("host names not derived: %q, Host(pair-1) = %v", a.Name(), p.Host("pair-1"))
	}

	buf := make([]*platform.Link, 0, 8)
	allocs := testing.AllocsPerRun(100, func() {
		p.RouteInto(buf[:0], a, b)
		p.RouteInto(buf[:0], b, a)
	})
	if allocs != 0 {
		t.Errorf("RouteInto with reused buffer allocates %v times per lookup pair, want 0", allocs)
	}
}

// TestMissingPairPanicNamesFixture checks the missing-route diagnostic: a
// pair without a Route call panics naming the fixture and both hosts.
func TestMissingPairPanicNamesFixture(t *testing.T) {
	f := New("gap")
	a, b, c := f.Platform.NewHost(1e9), f.Platform.NewHost(1e9), f.Platform.NewHost(1e9)
	f.Route(a, b, f.Link("l", 1e9, core.Microsecond, lmm.Shared))
	defer func() {
		s := fmt.Sprint(recover())
		for _, want := range []string{`"gap"`, `"gap-0"`, `"gap-2"`} {
			if !strings.Contains(s, want) {
				t.Errorf("panic %q does not name %s", s, want)
			}
		}
	}()
	f.Platform.Route(a, c)
}
