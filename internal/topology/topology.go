package topology

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"smpigo/internal/platform"
)

// Spec is the topology-side view of platform.Spec: a shape whose structural
// metrics (hosts, links, diameter, bisection bandwidth, and the family in
// Kind) are computed analytically, without a platform build. Build attaches
// the same value to platform.Platform.Topo.
type Spec interface {
	platform.Spec
	Metrics() platform.TopoInfo
}

// presets maps preset names to spec constructors. Populated at init time by
// the per-topology files, read-only afterwards.
var presets = map[string]func() Spec{}

func registerPreset(name string, build func() Spec) {
	if _, dup := presets[name]; dup {
		panic(fmt.Sprintf("topology: preset %q registered twice", name))
	}
	presets[name] = build
}

// presetNames lists the built-in topology presets, sorted.
func presetNames() []string {
	names := make([]string, 0, len(presets))
	for name := range presets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ParseSpec resolves a topology description string: either a preset name
// (see presetNames) or a compact shape grammar —
//
//	fattree:<down ports per level>:<up ports per level>   fattree:4x4:1x4
//	torus:<dims>                                          torus:4x4x4
//	dragonfly:<groups>x<routers>x<hosts per router>       dragonfly:9x4x2
//
// Fat-tree port lists accept "x" or "," as separator; prefer the x form in
// comma-separated flag lists. Shape strings inherit the corresponding
// preset's speeds and link parameters.
func ParseSpec(s string) (Spec, error) {
	if build, ok := presets[s]; ok {
		return build(), nil
	}
	kind, rest, found := strings.Cut(s, ":")
	if !found {
		return nil, fmt.Errorf("topology: unknown spec %q (want a preset — %s — or fattree:..., torus:..., dragonfly:...)",
			s, strings.Join(presetNames(), ", "))
	}
	switch kind {
	case "fattree":
		return parseFatTree(rest)
	case "torus":
		return parseTorus(rest)
	case "dragonfly":
		return parseDragonfly(rest)
	default:
		return nil, fmt.Errorf("topology: unknown kind %q in spec %q (want fattree, torus, dragonfly)", kind, s)
	}
}

// specName derives a platform name from a shape string: "fattree:4x4:1x4"
// becomes "fattree-4-4-1-4" so host and link names stay identifier-like.
func specName(kind, rest string) string {
	r := strings.NewReplacer(":", "-", ",", "-", "x", "-")
	return kind + "-" + r.Replace(rest)
}

func parseIntList(s, sep string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, sep) {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// hostCount multiplies a shape's extents into its host count, failing when
// the product overflows int.
func hostCount(extents ...int) (int, error) {
	n := 1
	for _, e := range extents {
		if e > 0 && n > math.MaxInt/e {
			return 0, fmt.Errorf("host count overflows int, want at most %d", math.MaxInt)
		}
		n *= e
	}
	return n, nil
}
