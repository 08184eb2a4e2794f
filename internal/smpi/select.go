package smpi

import (
	"fmt"
	"slices"
	"strings"

	"smpigo/internal/platform"
)

// algoAuto is the sentinel algorithm name that selects a collective's
// implementation from the target platform's interconnect (platform.TopoInfo)
// at Run time. Any Algorithms field may be set to it individually — fields
// holding a concrete algorithm name are never touched, which is the
// per-collective override hook: Algorithms{Bcast: "auto", Allreduce: "ring"}
// auto-selects the broadcast but forces the ring allreduce everywhere.
const algoAuto = "auto"

// collective is one row of the collectives table: an operation's name, its
// Algorithms field, its variant names (the first is the default) and what
// "auto" picks per interconnect family where that is not the default.
type collective struct {
	name     string
	field    func(*Algorithms) *string
	variants []string
	auto     map[string]string
}

// row reads a table row off the variant list the collective dispatches on.
func row[F any](name string, field func(*Algorithms) *string, vs variants[F]) collective {
	c := collective{name: name, field: field, auto: map[string]string{}}
	for _, v := range vs {
		c.variants = append(c.variants, v.name)
		if v.auto != "" {
			c.auto[v.auto] = v.name
		}
	}
	return c
}

// collectives is the one table of collective names: everything below —
// hence Config.fillDefaults and each front end's -collectives help — is a
// loop over it. Its order is Summary's. A new variant is one entry in its
// collective's list in collectives.go; a new collective is that list, its
// Algorithms field and one row here.
var collectives = []collective{
	row("bcast", func(a *Algorithms) *string { return &a.Bcast }, bcastVariants),
	row("scatter", func(a *Algorithms) *string { return &a.Scatter }, scatterVariants),
	row("gather", func(a *Algorithms) *string { return &a.Gather }, gatherVariants),
	row("allgather", func(a *Algorithms) *string { return &a.Allgather }, allgatherVariants),
	row("alltoall", func(a *Algorithms) *string { return &a.Alltoall }, alltoallVariants),
	row("reduce", func(a *Algorithms) *string { return &a.Reduce }, reduceVariants),
	row("allreduce", func(a *Algorithms) *string { return &a.Allreduce }, allreduceVariants),
	row("barrier", func(a *Algorithms) *string { return &a.Barrier }, barrierVariants),
}

// DefaultAlgorithms returns the per-collective package defaults, the first
// variant of each: what an empty field means, and what "auto" selects when
// nothing is known about the interconnect.
func DefaultAlgorithms() Algorithms { return Auto().Resolve(nil) }

// Auto returns an Algorithms with every collective set to algoAuto.
func Auto() Algorithms {
	var a Algorithms
	for _, c := range collectives {
		*c.field(&a) = algoAuto
	}
	return a
}

// Resolve replaces every algoAuto field with the variant its collective's
// list marks for the interconnect's structural family (recorded by the
// topology generators and the cluster builder), else with the default;
// concrete and empty fields are left untouched. Tori select the ring
// variants: a ring schedule only talks to rank neighbors, which
// dimension-order routing maps onto single cables, while trees and recursive
// doubling jump half the machine per step and pay the torus diameter on every
// hop. Fat-trees, dragonflies and clusters provision exactly those far hops
// (spines, global cables, backbones), so there the log2(P) step count of the
// defaults wins; docs/ARCHITECTURE.md, "Collective selection", has more.
func (a Algorithms) Resolve(topo *platform.TopoInfo) Algorithms {
	for _, c := range collectives {
		if f := c.field(&a); *f == algoAuto {
			*f = c.variants[0]
			if topo != nil && c.auto[topo.Kind] != "" {
				*f = c.auto[topo.Kind]
			}
		}
	}
	return a
}

// normName is the spelling rule of every name a front end accepts.
func normName(s string) string { return strings.ToLower(strings.TrimSpace(s)) }

// checked returns a with every field in the table's spelling — case and
// surrounding whitespace are ignored, as for every other name a front end
// accepts — or an error listing what the first unknown name could have been.
func (a Algorithms) checked() (Algorithms, error) {
	for _, c := range collectives {
		f := c.field(&a)
		name := normName(*f)
		if name != "" && name != algoAuto && !slices.Contains(c.variants, name) {
			want := slices.Sorted(slices.Values(append([]string{algoAuto}, c.variants...)))
			return Algorithms{}, fmt.Errorf("smpi: unknown %s algorithm %q (want %s)", c.name, *f, strings.Join(want, ", "))
		}
		*f = name
	}
	return a, nil
}

// ParseAlgorithms parses the -collectives flag grammar shared by smpirun
// and the campaign subcommand:
//
//	""            package defaults per collective
//	"default"     same as ""
//	"auto"        every collective selected from the platform (Auto)
//	"<op>=<algo>[,<op>=<algo>...]"   per-collective overrides, e.g.
//	    "bcast=ring,allreduce=auto" — unnamed collectives keep defaults
//
// Ops and algorithms are the collectives table's names (CollectivesUsage
// lists them), matched without regard to case or surrounding whitespace; an
// unknown one is an error naming the accepted values.
func ParseAlgorithms(s string) (Algorithms, error) {
	var a Algorithms
	switch normName(s) {
	case "", "default":
		return a, nil
	case algoAuto:
		return Auto(), nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		op, algo, found := strings.Cut(part, "=")
		if !found || normName(algo) == "" {
			return Algorithms{}, fmt.Errorf("smpi: collectives entry %q: want <op>=<algo>, \"auto\", or \"default\"", part)
		}
		i := slices.IndexFunc(collectives, func(c collective) bool { return c.name == normName(op) })
		if i < 0 {
			return Algorithms{}, fmt.Errorf("smpi: unknown collective %q in %q (want %s)", op, s, CollectivesUsage())
		}
		*collectives[i].field(&a) = algo
	}
	return a.checked()
}

// Summary renders the non-empty fields as "op=algo" pairs in table order,
// for experiment notes and smpirun output.
func (a Algorithms) Summary() string {
	var parts []string
	for _, c := range collectives {
		if algo := *c.field(&a); algo != "" {
			parts = append(parts, c.name+"="+algo)
		}
	}
	return strings.Join(parts, " ")
}

// CollectivesUsage lists every collective with its variants, the default
// first, for the -collectives help of the front ends.
func CollectivesUsage() string {
	parts := make([]string, len(collectives))
	for i, c := range collectives {
		parts[i] = c.name + "=" + strings.Join(c.variants, "|")
	}
	return strings.Join(parts, ", ")
}
