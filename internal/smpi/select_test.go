package smpi

import (
	"strings"
	"testing"

	"smpigo/internal/core"
	"smpigo/internal/platform"
	"smpigo/internal/topology"
)

// TestAutoSelectionTable pins the topology-keyed algorithm selection: ring
// schedules on tori, trees on fat-trees, dragonflies and clusters — the
// acceptance property that "auto" resolves differently on torus:4x4x4 vs
// fattree:4x4:1x4.
func TestAutoSelectionTable(t *testing.T) {
	cases := []struct {
		spec                     string
		wantBcast, wantAllreduce string
	}{
		{"torus16", "ring", "ring"},
		{"torus64", "ring", "ring"},
		{"torus:4x4x4", "ring", "ring"},
		{"fattree16", "binomial", "recursive-doubling"},
		{"fattree64", "binomial", "recursive-doubling"},
		{"fattree:4x4:1x4", "binomial", "recursive-doubling"},
		{"dragonfly72", "binomial", "recursive-doubling"},
		{"dragonfly:3x2x2", "binomial", "recursive-doubling"},
	}
	for _, tc := range cases {
		spec, err := topology.ParseSpec(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		plat, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		if plat.Topo == nil {
			t.Fatalf("%s: builder left Platform.Topo nil", tc.spec)
		}
		got := Auto().Resolve(plat.Topo)
		if got.Bcast != tc.wantBcast || got.Allreduce != tc.wantAllreduce {
			t.Errorf("%s: auto resolved bcast=%s allreduce=%s, want bcast=%s allreduce=%s",
				tc.spec, got.Bcast, got.Allreduce, tc.wantBcast, tc.wantAllreduce)
		}
	}
	// Clusters and unannotated platforms resolve to the package defaults.
	griffon, err := platform.Griffon().Build()
	if err != nil {
		t.Fatal(err)
	}
	for name, topo := range map[string]*platform.TopoInfo{"griffon": griffon.Topo, "nil": nil} {
		if got, want := Auto().Resolve(topo), DefaultAlgorithms(); got != want {
			t.Errorf("%s: auto resolved %+v, want defaults %+v", name, got, want)
		}
	}
}

// TestResolveOverrideHook checks that concrete fields survive resolution:
// only "auto" fields are selected, the rest are per-collective overrides.
func TestResolveOverrideHook(t *testing.T) {
	torus := &platform.TopoInfo{Kind: "torus"}
	a := Algorithms{Bcast: algoAuto, Allreduce: "reduce-bcast"}
	got := a.Resolve(torus)
	if got.Bcast != "ring" {
		t.Errorf("auto bcast on torus resolved to %q, want ring", got.Bcast)
	}
	if got.Allreduce != "reduce-bcast" {
		t.Errorf("explicit allreduce overridden to %q", got.Allreduce)
	}
	if got.Scatter != "" {
		t.Errorf("empty scatter filled to %q by Resolve (defaults belong to fillDefaults)", got.Scatter)
	}
}

// TestAutoRunsEndToEnd exercises "auto" through Run on both acceptance
// topologies: on each platform the auto run must time exactly like a run
// with the selected algorithm forced, and differently from the alternative
// — so the selection demonstrably changes the simulated schedule, not just
// a config string.
func TestAutoRunsEndToEnd(t *testing.T) {
	timeOn := func(specStr string, algos Algorithms) core.Time {
		spec, err := topology.ParseSpec(specStr)
		if err != nil {
			t.Fatal(err)
		}
		plat, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(Config{Procs: 16, Platform: plat, Algorithms: algos}, func(r *Rank) {
			buf := make([]byte, 64*core.KiB)
			r.Comm().Bcast(r, buf, 0)
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.SimulatedTime
	}
	for _, tc := range []struct {
		spec, selected, other string
	}{
		{"torus:4x4", "ring", "binomial"},
		{"fattree:4x4:1x4", "binomial", "ring"},
	} {
		auto := timeOn(tc.spec, Auto())
		sel := timeOn(tc.spec, Algorithms{Bcast: tc.selected})
		alt := timeOn(tc.spec, Algorithms{Bcast: tc.other})
		if auto != sel {
			t.Errorf("%s: auto bcast %v != forced %s %v", tc.spec, auto, tc.selected, sel)
		}
		if auto == alt {
			t.Errorf("%s: auto bcast indistinguishable from %s (%v); selection inert", tc.spec, tc.other, auto)
		}
	}
}

func TestParseAlgorithms(t *testing.T) {
	for _, s := range []string{"", "default", " default "} {
		got, err := ParseAlgorithms(s)
		if err != nil || got != (Algorithms{}) {
			t.Errorf("ParseAlgorithms(%q) = %+v, %v; want zero value", s, got, err)
		}
	}
	for _, s := range []string{"auto", "AUTO", " Auto "} {
		got, err := ParseAlgorithms(s)
		if err != nil || got != Auto() {
			t.Errorf("ParseAlgorithms(%q) = %+v, %v", s, got, err)
		}
	}
	got, err := ParseAlgorithms("bcast=ring, allreduce=auto")
	if err != nil {
		t.Fatal(err)
	}
	if got.Bcast != "ring" || got.Allreduce != algoAuto || got.Barrier != "" {
		t.Errorf("override parse = %+v", got)
	}
	for _, bad := range []string{"bcast", "bcast=", "frobnicate=ring"} {
		if _, err := ParseAlgorithms(bad); err == nil {
			t.Errorf("ParseAlgorithms(%q) accepted", bad)
		}
	}
}

// TestHostsMismatchFailsLoudly covers the Config.Hosts validation: too
// short, too long, nil entries, and hosts from a different platform all
// fail naming the offending rank instead of panicking or silently wrapping.
func TestHostsMismatchFailsLoudly(t *testing.T) {
	plat, err := platform.Griffon().Build()
	if err != nil {
		t.Fatal(err)
	}
	other, err := platform.Gdx().Build()
	if err != nil {
		t.Fatal(err)
	}
	noop := func(r *Rank) {}
	run := func(hosts []*platform.Host) error {
		_, err := Run(Config{Procs: 4, Platform: plat, Hosts: hosts}, noop)
		return err
	}
	all := plat.Hosts()

	if err := run(all[:2]); err == nil || !strings.Contains(err.Error(), "rank 2") {
		t.Errorf("short Hosts: got %v, want error naming rank 2", err)
	}
	if err := run(all[:6]); err == nil || !strings.Contains(err.Error(), "hosts[4:]") {
		t.Errorf("long Hosts: got %v, want error naming the unused tail", err)
	}
	if err := run([]*platform.Host{all[0], nil, all[2], all[3]}); err == nil ||
		!strings.Contains(err.Error(), "rank 1") {
		t.Errorf("nil entry: got %v, want error naming rank 1", err)
	}
	foreign := []*platform.Host{all[0], all[1], other.Hosts()[2], all[3]}
	err = run(foreign)
	if err == nil || !strings.Contains(err.Error(), "rank 2") || !strings.Contains(err.Error(), "gdx-2") {
		t.Errorf("foreign host: got %v, want error naming rank 2 and host gdx-2", err)
	}
	// A correct pinning still runs.
	if err := run([]*platform.Host{all[3], all[2], all[1], all[0]}); err != nil {
		t.Errorf("valid pinning rejected: %v", err)
	}
}
