// Package placement generates rank-to-host mappings: it turns a platform
// and a process count into the smpi.Config.Hosts ordering that pins rank i
// to a specific host. How ranks are laid out over an interconnect decides
// which links a communication schedule actually touches — on a fat-tree
// with D-mod-k routing, packing neighbor ranks under one leaf switch keeps
// ring traffic off the spine, while spreading them across leaves forces
// every hop through it — so placement is a campaign axis in its own right,
// swept alongside topology by experiments.GridSpec.
//
// Three mapping policies are provided:
//
//   - "block": consecutive ranks on consecutive hosts, filling the
//     platform's lowest-level groups (leaf switches, routers, torus rows,
//     cabinets — see platform.Host.Cabinet) one after the other;
//   - "rr" (round-robin): ranks dealt cyclically across the lowest-level
//     groups, so consecutive ranks land in different groups — the
//     adversarial layout for neighbor-heavy schedules;
//   - "random": a uniform shuffle of the hosts, seeded deterministically.
//
// Every policy is a pure function of (platform, procs, seed): the random
// policy derives its stream with core.DeriveSeed from the seed and the
// platform name, never from global state, so campaign sweeps that place
// ranks inside worker-pool jobs stay bit-identical at any parallelism.
// When procs exceeds the host count, consecutive ranks share hosts: every
// host of the policy's permutation receives floor or ceil of procs/hosts
// ranks, so oversubscription preserves each policy's locality structure.
package placement

import (
	"fmt"
	"sort"
	"strings"

	"smpigo/internal/core"
	"smpigo/internal/platform"
)

// names lists the supported placement policies, sorted.
func names() []string { return []string{"block", "random", "rr"} }

// Generate returns the hosts for ranks 0..procs-1 under the named policy.
// The result has exactly procs entries and is a pure function of the
// arguments; pass it to smpi.Config.Hosts. Seed only affects "random".
func Generate(policy string, plat *platform.Platform, procs int, seed uint64) ([]*platform.Host, error) {
	if plat == nil {
		return nil, fmt.Errorf("placement: nil platform")
	}
	if procs <= 0 {
		return nil, fmt.Errorf("placement: non-positive process count %d", procs)
	}
	all := plat.Hosts()
	if len(all) == 0 {
		return nil, fmt.Errorf("placement: platform %q has no hosts", plat.Name)
	}
	canonical, err := Normalize(policy)
	if err != nil {
		return nil, err
	}
	var perm []*platform.Host
	switch canonical {
	case "block":
		perm = all
	case "rr":
		perm = roundRobin(all)
	case "random":
		perm = shuffle(all, core.DeriveSeed(seed, "placement/random/"+plat.Name))
	}
	return assign(perm, procs), nil
}

// Normalize maps a policy name (and its aliases: "round-robin" and "cyclic"
// for "rr") to its canonical form, or errors naming the known policies.
// Campaign axes normalize up front so an unknown policy fails the sweep's
// expansion instead of every job.
func Normalize(policy string) (string, error) {
	switch strings.ToLower(policy) {
	case "block":
		return "block", nil
	case "rr", "round-robin", "cyclic":
		return "rr", nil
	case "random":
		return "random", nil
	}
	return "", fmt.Errorf("placement: unknown policy %q (want %s)",
		policy, strings.Join(names(), ", "))
}

// assign maps procs ranks onto the host permutation. With procs <= hosts,
// rank i simply gets perm[i]; with more ranks than hosts, consecutive ranks
// share a host — every host receives floor or ceil of procs/hosts ranks in
// permutation order — keeping the "block" and "rr" locality structure
// intact under oversubscription.
func assign(perm []*platform.Host, procs int) []*platform.Host {
	n := len(perm)
	hosts := make([]*platform.Host, procs)
	for i := range hosts {
		if procs <= n {
			hosts[i] = perm[i]
		} else {
			hosts[i] = perm[i*n/procs]
		}
	}
	return hosts
}

// roundRobin deals the hosts across the platform's lowest-level groups
// (platform.Host.Cabinet): the first hosts of every group come first, then
// the second hosts, and so on, so consecutive slots alternate groups. On a
// platform without group structure (all Cabinet == -1) the host order is
// returned unchanged — there is no "across" to deal over, and callers see
// the documented degeneration of rr into block.
func roundRobin(all []*platform.Host) []*platform.Host {
	groups := make(map[int][]*platform.Host)
	var ids []int
	for _, h := range all {
		if _, seen := groups[h.Cabinet]; !seen {
			ids = append(ids, h.Cabinet)
		}
		groups[h.Cabinet] = append(groups[h.Cabinet], h)
	}
	if len(ids) <= 1 {
		return all
	}
	sort.Ints(ids)
	perm := make([]*platform.Host, 0, len(all))
	for round := 0; len(perm) < len(all); round++ {
		for _, id := range ids {
			if g := groups[id]; round < len(g) {
				perm = append(perm, g[round])
			}
		}
	}
	return perm
}

// shuffle returns a Fisher-Yates permutation of the hosts driven by the
// derived seed.
func shuffle(all []*platform.Host, seed uint64) []*platform.Host {
	perm := make([]*platform.Host, len(all))
	copy(perm, all)
	rng := core.NewRNG(seed)
	for i := len(perm) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}
