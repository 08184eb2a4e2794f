// Package platformtest builds small test platforms — dumbbells, stars —
// whose routes are listed by hand, in the spirit of net/http/httptest. A
// fixture goes through the same spec API as every builder (platform.New,
// NewHost, NewLink, SetLinkNamer, SetRouter): link names are the ones the
// test gave, host names are derived ("<platform>-<ID>"), and routes come
// from a table router. Import it from _test.go files only.
package platformtest

import (
	"fmt"

	"smpigo/internal/core"
	"smpigo/internal/lmm"
	"smpigo/internal/platform"
)

// Fixture is a test platform under construction. Platform is usable as soon
// as New returns; hosts (Platform.NewHost, named "<platform>-<ID>"), links
// and routes may be added until it is in use.
type Fixture struct {
	Platform *platform.Platform

	links  []string
	routes router
}

// New returns an empty fixture named name.
func New(name string) *Fixture {
	f := &Fixture{Platform: platform.New(name), routes: router{platform: name, pairs: make(map[[2]int]platform.Route)}}
	f.Platform.SetLinkNamer(func(id int) string { return f.links[id] })
	f.Platform.SetRouter(f.routes)
	return f
}

// Link adds a link with the given name.
func (f *Fixture) Link(name string, bandwidth float64, latency core.Duration, policy lmm.SharingPolicy) *platform.Link {
	l := f.Platform.NewLink(bandwidth, latency, policy)
	f.links = append(f.links, name)
	return l
}

// Route installs the symmetric route a → b over links; b → a crosses them
// backward. Both directions carry the latency summed in the forward order.
func (f *Fixture) Route(a, b *platform.Host, links ...*platform.Link) {
	var lat core.Duration
	for _, l := range links {
		lat += l.Latency
	}
	back := make([]*platform.Link, len(links))
	for i, l := range links {
		back[len(links)-1-i] = l
	}
	f.routes.pairs[[2]int{a.ID, b.ID}] = platform.Route{Links: links, Latency: lat}
	f.routes.pairs[[2]int{b.ID, a.ID}] = platform.Route{Links: back, Latency: lat}
}

// router is a table of pair routes; a missing pair panics naming the
// fixture.
type router struct {
	platform string
	pairs    map[[2]int]platform.Route
}

// RouteInto implements platform.Router.
func (r router) RouteInto(buf []*platform.Link, a, b *platform.Host) platform.Route {
	route, ok := r.pairs[[2]int{a.ID, b.ID}]
	if !ok {
		panic(fmt.Sprintf("platformtest: fixture %q: no route between %q and %q", r.platform, a.Name(), b.Name()))
	}
	return platform.Route{Links: append(buf, route.Links...), Latency: route.Latency}
}
