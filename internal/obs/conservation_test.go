package obs

// Conservation tests: the observability layer's core guarantee is that the
// drained-segment stream accounts for exactly the traffic injected — a flow
// of S bytes over a k-link route contributes k*S recorded bytes, however
// many rate changes it lives through. The test pins this on every topology
// preset (each exercises a different routing inverse and contention
// pattern), checks Shared-link utilization never exceeds 1 (the LMM never
// over-commits a constraint), and round-trips the Timeline JSON to verify
// bucketing preserves the same totals.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"path"
	"testing"

	"smpigo/internal/core"
	"smpigo/internal/dynamics"
	"smpigo/internal/lmm"
	"smpigo/internal/platform"
	"smpigo/internal/simix"
	"smpigo/internal/surf"
	"smpigo/internal/topology"
)

const payload = 1 << 20 // 1 MiB per flow

// relClose reports whether got is within 1e-9 relative of want.
func relClose(got, want float64) bool {
	if want == 0 {
		return got == 0
	}
	return math.Abs(got-want) <= 1e-9*math.Abs(want)
}

func TestLinkByteConservation(t *testing.T) {
	for _, name := range topology.PresetNames() {
		t.Run(name, func(t *testing.T) {
			spec, err := topology.ParseSpec(name)
			if err != nil {
				t.Fatal(err)
			}
			plat, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			hosts := plat.Hosts()
			n := len(hosts)
			// A spine-crossing shift pattern: host i streams to i+n/2+1, so
			// most routes leave the local switch and contend on trunk links.
			stride := n/2 + 1
			if stride%n == 0 {
				stride = 1
			}
			dst := func(i int) int { return (i + stride) % n }

			// Expected per-link bytes from the routes alone: every link a
			// route crosses carries the full payload.
			expected := make([]float64, len(plat.Links()))
			for i := range hosts {
				for _, l := range plat.Route(hosts[i], hosts[dst(i)]).Links {
					expected[l.ID] += payload
				}
			}

			k := simix.New()
			net := surf.NewNetwork(k, surf.Ideal())
			k.AddModel(net)
			o := NewObserver(plat)
			tl := NewTimeline(plat, core.Duration(100e-6))
			net.Instrument(nil, nil, nil, Multi(o, tl))
			k.Spawn("flows", func(p *simix.Proc) {
				futs := make([]*simix.Future, n)
				for i := range hosts {
					futs[i] = simix.NewFuture()
					net.StartFlow(plat.Route(hosts[i], hosts[dst(i)]), payload, futs[i])
				}
				for _, f := range futs {
					p.Wait(f)
				}
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}

			for _, l := range plat.Links() {
				if got := o.linkBytes[l.ID]; !relClose(got, expected[l.ID]) {
					t.Errorf("link %s: recorded %.6f B, routes inject %.0f B", l.Name(), got, expected[l.ID])
				}
			}
			for _, u := range o.topLinks(len(plat.Links())) {
				if u.Link.Policy == lmm.Shared && u.Utilization > 1+1e-9 {
					t.Errorf("link %s: utilization %.6f exceeds capacity", u.Link.Name(), u.Utilization)
				}
			}

			// Timeline bucket sums must reproduce the observer's totals:
			// proportional distribution moves bytes between buckets, never
			// creates or destroys them.
			var buf bytes.Buffer
			if err := tl.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			var doc struct {
				BucketWidth float64 `json:"bucket_width"`
				Links       []struct {
					Name    string    `json:"name"`
					Buckets []float64 `json:"buckets"`
				} `json:"links"`
			}
			if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
				t.Fatal(err)
			}
			if doc.BucketWidth != 100e-6 {
				t.Errorf("bucket width %v, want 100e-6", doc.BucketWidth)
			}
			byName := make(map[string]*platform.Link, len(plat.Links()))
			for _, l := range plat.Links() {
				byName[l.Name()] = l
			}
			active := 0
			for _, s := range doc.Links {
				sum := 0.0
				for _, b := range s.Buckets {
					sum += b
				}
				l := byName[s.Name]
				if l == nil {
					t.Fatalf("timeline names unknown link %q", s.Name)
				}
				if !relClose(sum, o.linkBytes[l.ID]) {
					t.Errorf("link %s: timeline buckets sum to %.6f B, observer total %.0f B", s.Name, sum, o.linkBytes[l.ID])
				}
				active++
			}
			wantActive := 0
			for _, e := range expected {
				if e != 0 {
					wantActive++
				}
			}
			if active != wantActive {
				t.Errorf("timeline has %d link series, %d links carried traffic", active, wantActive)
			}
		})
	}
}

// TestConservationUnderDynamics re-runs the byte-conservation argument with
// the platform shifting under the traffic: every trunk link is degraded to a
// quarter of nominal mid-flight and boosted to double later, through the same
// dynamics schedule smpirun -dynamics arms. Conservation must be unaffected —
// capacity changes reshape *when* bytes move, never *how many* — and each
// retuned link's byte total must respect the integral of its time-varying
// capacity.
func TestConservationUnderDynamics(t *testing.T) {
	const (
		t1      = core.Time(2e-3)  // degrade trunks to 0.25x
		t2      = core.Time(10e-3) // boost trunks to 2x
		degrade = 0.25
		boost   = 2.0
	)
	cases := []struct{ topo, trunk string }{
		{"fattree16", "fattree16-l2-*"},
		{"fattree64", "fattree64-l3-*"},
		{"torus16", "torus16-*-d1-*"},
		{"torus64", "torus64-*-d2-*"},
		{"dragonfly72", "dragonfly72-g*-g*"},
	}
	for _, tc := range cases {
		t.Run(tc.topo, func(t *testing.T) {
			spec, err := topology.ParseSpec(tc.topo)
			if err != nil {
				t.Fatal(err)
			}
			plat, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			hosts := plat.Hosts()
			n := len(hosts)
			stride := n/2 + 1
			if stride%n == 0 {
				stride = 1
			}
			dst := func(i int) int { return (i + stride) % n }

			expected := make([]float64, len(plat.Links()))
			for i := range hosts {
				for _, l := range plat.Route(hosts[i], hosts[dst(i)]).Links {
					expected[l.ID] += payload
				}
			}
			trunk := make(map[int]bool)
			for _, l := range plat.Links() {
				if ok, _ := path.Match(tc.trunk, l.Name()); ok {
					trunk[l.ID] = true
				}
			}
			if len(trunk) == 0 {
				t.Fatalf("glob %q matches no link", tc.trunk)
			}

			k := simix.New()
			net := surf.NewNetwork(k, surf.Ideal())
			k.AddModel(net)
			o := NewObserver(plat)
			tl := NewTimeline(plat, core.Duration(100e-6))
			net.Instrument(nil, nil, nil, Multi(o, tl))
			sched, err := dynamics.Parse(fmt.Sprintf(
				"@2ms link %s scale %g; @10ms link %s scale %g",
				tc.trunk, degrade, tc.trunk, boost))
			if err != nil {
				t.Fatal(err)
			}
			if err := sched.Arm(k, plat, net, nil); err != nil {
				t.Fatal(err)
			}
			k.Spawn("flows", func(p *simix.Proc) {
				futs := make([]*simix.Future, n)
				for i := range hosts {
					futs[i] = simix.NewFuture()
					net.StartFlow(plat.Route(hosts[i], hosts[dst(i)]), payload, futs[i])
				}
				for _, f := range futs {
					p.Wait(f)
				}
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}

			// Conservation first: recorded bytes still equal the routes'
			// injection exactly, rate changes or not.
			for _, l := range plat.Links() {
				if got := o.linkBytes[l.ID]; !relClose(got, expected[l.ID]) {
					t.Errorf("link %s: recorded %.6f B, routes inject %.0f B", l.Name(), got, expected[l.ID])
				}
			}

			// Both events must land mid-flight, or the test is vacuous.
			end, ok := o.spanEnd, o.any
			if !ok || end <= t2 {
				t.Fatalf("span ends at %v, want traffic outliving the %v boost event", end, t2)
			}

			// Each retuned Shared link's bytes are bounded by the integral of
			// its piecewise-constant capacity over the observed span. The
			// static-utilization check from TestLinkByteConservation does not
			// apply here: after the boost a trunk can legitimately beat its
			// nominal rate.
			capIntegral := func(nominal float64) float64 {
				seg := func(a, b core.Time, f float64) float64 {
					if b > end {
						b = end
					}
					if b <= a {
						return 0
					}
					return nominal * f * float64(b-a)
				}
				return seg(0, t1, 1) + seg(t1, t2, degrade) + seg(t2, end, boost)
			}
			for _, l := range plat.Links() {
				if !trunk[l.ID] || l.Policy != lmm.Shared {
					continue
				}
				if bound := capIntegral(l.Bandwidth); o.linkBytes[l.ID] > bound*(1+1e-9) {
					t.Errorf("link %s: %.0f B exceeds capacity integral %.0f B", l.Name(), o.linkBytes[l.ID], bound)
				}
			}
			// Untouched Shared links still obey the static bound.
			for _, u := range o.topLinks(len(plat.Links())) {
				if !trunk[u.Link.ID] && u.Link.Policy == lmm.Shared && u.Utilization > 1+1e-9 {
					t.Errorf("link %s: utilization %.6f exceeds capacity", u.Link.Name(), u.Utilization)
				}
			}

			// Timeline bucketing remains lossless across rate changes.
			var buf bytes.Buffer
			if err := tl.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			var doc struct {
				Links []struct {
					Name    string    `json:"name"`
					Buckets []float64 `json:"buckets"`
				} `json:"links"`
			}
			if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
				t.Fatal(err)
			}
			byName := make(map[string]*platform.Link, len(plat.Links()))
			for _, l := range plat.Links() {
				byName[l.Name()] = l
			}
			for _, s := range doc.Links {
				sum := 0.0
				for _, b := range s.Buckets {
					sum += b
				}
				l := byName[s.Name]
				if l == nil {
					t.Fatalf("timeline names unknown link %q", s.Name)
				}
				if !relClose(sum, o.linkBytes[l.ID]) {
					t.Errorf("link %s: timeline buckets sum to %.6f B, observer total %.0f B", s.Name, sum, o.linkBytes[l.ID])
				}
			}
		})
	}
}
