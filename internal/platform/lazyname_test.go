package platform

// Tests for derived names: NewHost/NewLink store no names (derived from the
// slab index and the registered link namer), the derived-mode Host() lookup
// inverts the prefix scheme with a strict round-trip check, and a platform
// is built from a spec or by hand, never both.

import (
	"fmt"
	"strings"
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

// TestMixedConstructionPanics pins the two exclusive construction modes:
// after a call of one mode, every call of the other panics naming itself,
// whichever mode came first.
func TestMixedConstructionPanics(t *testing.T) {
	fromSpec := map[string]func(*Platform){
		"NewHost":      func(p *Platform) { p.NewHost(1e9) },
		"NewLink":      func(p *Platform) { p.NewLink(1e9, 0, lmm.Shared) },
		"SetLinkNamer": func(p *Platform) { p.SetLinkNamer(func(int) string { return "" }) },
		"SetRouter":    func(p *Platform) { p.SetRouter(nil) },
	}
	byHand := map[string]func(*Platform){
		"AddHost":  func(p *Platform) { p.AddHost("h", 1e9) },
		"AddLink":  func(p *Platform) { p.AddLink("l", 1e9, 0, lmm.Shared) },
		"AddRoute": func(p *Platform) { h := New("other").AddHost("a", 1e9); p.AddRoute(h, h, nil) },
	}
	check := func(first, then map[string]func(*Platform)) {
		for fname, f := range first {
			for name, call := range then {
				p := New("mix")
				f(p)
				func() {
					defer func() {
						msg := fmt.Sprint(recover())
						if !strings.Contains(msg, name+" mixes the two construction modes") {
							t.Errorf("%s after %s: panic %q, want one naming %s and the modes", name, fname, msg, name)
						}
					}()
					call(p)
				}()
			}
		}
	}
	check(fromSpec, byHand)
	check(byHand, fromSpec)
}

// TestDerivedModeStoresNoNames pins the memory contract: a platform built
// entirely through NewHost/NewLink keeps no per-name storage at all.
func TestDerivedModeStoresNoNames(t *testing.T) {
	p := New("lean")
	p.SetLinkNamer(func(id int) string { return fmt.Sprintf("lean-l%d", id) })
	for i := 0; i < 100; i++ {
		p.NewHost(1e9)
		p.NewLink(1e9, 0, lmm.Shared)
	}
	if p.hostNames != nil || p.linkNames != nil || p.byName != nil {
		t.Error("derived-only platform materialized name storage")
	}
	// Forcing every name out does not change that: naming is a pure
	// function of the ID, consulted per call.
	for _, h := range p.Hosts() {
		_ = h.Name()
	}
	for _, l := range p.Links() {
		_ = l.Name()
	}
	if p.hostNames != nil || p.linkNames != nil {
		t.Error("Name() calls materialized name storage")
	}
}
