package platform

// Tests for derived names: NewHost/NewLink store no names (derived from the
// slab index and the registered link namer), the derived-mode Host() lookup
// inverts the prefix scheme with a strict round-trip check.

import (
	"fmt"
	"testing"

	"smpigo/internal/lmm"
)

func TestDerivedHostNamesRoundTrip(t *testing.T) {
	p := New("big")
	for i := 0; i < 12; i++ {
		p.NewHost(1e9)
	}
	for i, h := range p.Hosts() {
		want := fmt.Sprintf("big-%d", i)
		if h.Name() != want {
			t.Errorf("host %d name = %q, want %q", i, h.Name(), want)
		}
		if got := p.Host(want); got != h {
			t.Errorf("Host(%q) = %v, want host %d", want, got, i)
		}
	}
}

func TestDerivedHostLookupIsStrict(t *testing.T) {
	p := New("big")
	for i := 0; i < 12; i++ {
		p.NewHost(1e9)
	}
	// Only the exact spelling Name() produces resolves: no leading zeros,
	// no signs, no out-of-range IDs, no foreign prefixes.
	for _, bad := range []string{"big-007", "big-+7", "big--1", "big-12", "big-", "big-7 ", "small-7", "7"} {
		if got := p.Host(bad); got != nil {
			t.Errorf("Host(%q) = %s, want nil", bad, got.Name())
		}
	}
}

func TestDerivedLinkNamer(t *testing.T) {
	p := New("net")
	// Without a namer, links fall back to "<platform>-link-<ID>".
	l0 := p.NewLink(1e9, 0, lmm.Shared)
	if l0.Name() != "net-link-0" {
		t.Errorf("default link name = %q", l0.Name())
	}
	// A registered namer takes over for every derived link, old and new.
	p.SetLinkNamer(func(id int) string { return fmt.Sprintf("net-edge%d", id) })
	l1 := p.NewLink(1e9, 0, lmm.Shared)
	if l0.Name() != "net-edge0" || l1.Name() != "net-edge1" {
		t.Errorf("namer-derived names = %q, %q", l0.Name(), l1.Name())
	}
}

// TestDerivedModeStoresNoNames pins the memory contract: a platform built
// through NewHost/NewLink keeps no per-name storage at all, so building it
// costs the same number of allocations at any size.
func TestDerivedModeStoresNoNames(t *testing.T) {
	build := func(n int) func() {
		return func() {
			p := New("lean")
			p.SetLinkNamer(func(id int) string { return fmt.Sprintf("lean-l%d", id) })
			p.Reserve(n, n)
			for i := 0; i < n; i++ {
				p.NewHost(1e9)
				p.NewLink(1e9, 0, lmm.Shared)
			}
		}
	}
	if small, large := testing.AllocsPerRun(10, build(10)), testing.AllocsPerRun(10, build(1000)); small != large {
		t.Errorf("building 10 hosts and links allocates %v times, 1000 allocate %v: storage grows per name", small, large)
	}
}
