package placement

import (
	"testing"

	"smpigo/internal/platform"
	"smpigo/internal/topology"
)

func buildTopo(t *testing.T, spec string) *platform.Platform {
	t.Helper()
	s, err := topology.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func hostIDs(hosts []*platform.Host) []int {
	ids := make([]int, len(hosts))
	for i, h := range hosts {
		ids[i] = h.ID
	}
	return ids
}

func TestBlockIsConsecutive(t *testing.T) {
	p := buildTopo(t, "fattree16")
	hosts, err := Generate("block", p, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hosts {
		if h.ID != i {
			t.Errorf("block: rank %d on host %d, want %d", i, h.ID, i)
		}
	}
}

func TestRoundRobinDealsAcrossGroups(t *testing.T) {
	// fattree16 has 4-host leaf switches (Cabinet = ID/4): round-robin must
	// put consecutive ranks in distinct leaves until the leaves wrap.
	p := buildTopo(t, "fattree16")
	hosts, err := Generate("rr", p, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 4, 8, 12, 1, 5, 9, 13}
	for i, h := range hosts {
		if h.ID != want[i] {
			t.Errorf("rr: rank %d on host %d, want %d (got %v)", i, h.ID, want[i], hostIDs(hosts))
			break
		}
	}
	for _, alias := range []string{"round-robin", "cyclic", "RR"} {
		aliased, err := Generate(alias, p, 8, 1)
		if err != nil {
			t.Fatalf("alias %q: %v", alias, err)
		}
		for i := range hosts {
			if aliased[i] != hosts[i] {
				t.Fatalf("alias %q maps rank %d differently", alias, i)
			}
		}
	}
}

func TestRoundRobinUnevenGroups(t *testing.T) {
	// Griffon's cabinets hold 33, 27 and 32 nodes; dealing must visit every
	// host exactly once even after the smallest cabinet is exhausted.
	p, err := platform.Griffon().Build()
	if err != nil {
		t.Fatal(err)
	}
	n := len(p.Hosts())
	hosts, err := Generate("rr", p, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool, n)
	for _, h := range hosts {
		if seen[h.ID] {
			t.Fatalf("host %d assigned twice", h.ID)
		}
		seen[h.ID] = true
	}
	if len(seen) != n {
		t.Fatalf("%d distinct hosts, want %d", len(seen), n)
	}
	// The first three ranks land in the three distinct cabinets.
	for i := 0; i < 3; i++ {
		if hosts[i].Cabinet != i {
			t.Errorf("rank %d in cabinet %d, want %d", i, hosts[i].Cabinet, i)
		}
	}
}

func TestRandomIsSeedDeterministic(t *testing.T) {
	p := buildTopo(t, "torus64")
	a, err := Generate("random", p, 64, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate("random", p, 64, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed maps rank %d to %s then %s", i, a[i].Name(), b[i].Name())
		}
	}
	c, err := Generate("random", p, 64, 43)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced the identical random mapping")
	}
	// The mapping is a permutation: every host exactly once at procs == n.
	seen := make(map[int]bool)
	for _, h := range a {
		if seen[h.ID] {
			t.Fatalf("random: host %d assigned twice", h.ID)
		}
		seen[h.ID] = true
	}
}

func TestOversubscriptionSharesHostsContiguously(t *testing.T) {
	p := buildTopo(t, "fattree16")
	hosts, err := Generate("block", p, 40, 1) // 40 ranks on 16 hosts
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int)
	prev := -1
	for i, h := range hosts {
		counts[h.ID]++
		if h.ID < prev {
			t.Fatalf("block under oversubscription not monotonic at rank %d", i)
		}
		prev = h.ID
	}
	if len(counts) != 16 {
		t.Fatalf("used %d hosts, want all 16", len(counts))
	}
	for id, c := range counts {
		if c < 2 || c > 3 { // floor/ceil of 40/16
			t.Errorf("host %d holds %d ranks, want 2 or 3", id, c)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	p := buildTopo(t, "torus16")
	if _, err := Generate("zigzag", p, 4, 0); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := Generate("block", p, 0, 0); err == nil {
		t.Error("zero procs accepted")
	}
	if _, err := Generate("block", nil, 4, 0); err == nil {
		t.Error("nil platform accepted")
	}
	if _, err := Normalize("nope"); err == nil {
		t.Error("Normalize accepted unknown policy")
	}
}

func TestFlatPlatformDegeneratesToHostOrder(t *testing.T) {
	// A platform without group structure: rr falls back to the host order
	// (documented degeneration into block).
	p := platform.New("flat")
	for i := 0; i < 4; i++ {
		p.NewHost(1e9)
	}
	hosts, err := Generate("rr", p, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hosts {
		if h.ID != i {
			t.Errorf("rr on flat platform: rank %d on host %d, want %d", i, h.ID, i)
		}
	}
}
