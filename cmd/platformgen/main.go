// Command platformgen emits platform descriptions in the repository's
// SimGrid-style XML dialect: the paper's cluster presets (griffon, gdx), a
// custom homogeneous cluster, or generated interconnect topologies
// (fat-tree, torus, dragonfly).
//
// Examples:
//
//	platformgen -topo griffon
//	platformgen -topo fattree64 -o fattree64.xml
//	platformgen -topo torus:8x8x4
//	platformgen -topo dragonfly:9x4x2 -metrics
//	platformgen -topo custom -cabinets 8,8 -speed 2Gf
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"smpigo/internal/core"
	"smpigo/internal/platform"
	"smpigo/internal/topology"
)

func main() {
	var (
		topo     = flag.String("topo", "griffon", "preset or shape: griffon, gdx, custom, a topology preset (fattree16, fattree64, torus16, torus64, dragonfly72), or a shape string (fattree:4x4:1x4 torus:4x4x4 dragonfly:9x4x2)")
		out      = flag.String("o", "-", "output file (- for stdout)")
		metrics  = flag.Bool("metrics", false, "print structural metrics (hosts, links, diameter, bisection) as a trailing XML comment")
		cabinets = flag.String("cabinets", "16,16", "custom: nodes per cabinet, comma separated")
		speed    = flag.String("speed", "1Gf", "custom: node speed")
		bw       = flag.String("bw", "1Gbps", "custom: node link bandwidth")
		lat      = flag.String("lat", "20us", "custom: node link latency")
	)
	flag.Parse()
	w := io.Writer(os.Stdout)
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "platformgen:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := run(w, *topo, *metrics, *cabinets, *speed, *bw, *lat); err != nil {
		fmt.Fprintln(os.Stderr, "platformgen:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, name string, metrics bool, cabinets, speed, bw, lat string) error {
	spec, err := resolve(name, cabinets, speed, bw, lat)
	if err != nil {
		return err
	}
	if err := platform.WriteXML(w, spec); err != nil {
		return err
	}
	if !metrics {
		return nil
	}
	if ts, ok := spec.(topology.Spec); ok {
		m := ts.Metrics()
		_, err = fmt.Fprintf(w, "<!-- hosts=%d links=%d diameter=%d bisection=%gBps -->\n",
			m.Hosts, m.Links, m.Diameter, m.BisectionBandwidth)
	} else if cs, ok := spec.(platform.ClusterSpec); ok {
		_, err = fmt.Fprintf(w, "<!-- hosts=%d cabinets=%d -->\n", cs.NodeCount(), len(cs.Cabinets))
	}
	return err
}

func resolve(name, cabinets, speed, bw, lat string) (platform.Spec, error) {
	switch name {
	case "griffon":
		return platform.Griffon(), nil
	case "gdx":
		return platform.Gdx(), nil
	case "custom":
		return customSpec(cabinets, speed, bw, lat)
	}
	return topology.ParseSpec(name)
}

func customSpec(cabinets, speed, bw, lat string) (platform.ClusterSpec, error) {
	spec := platform.Griffon() // sensible switch/backbone defaults
	spec.Name = "custom"
	spec.Cabinets = nil
	for _, part := range strings.Split(cabinets, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return spec, fmt.Errorf("cabinets: %w", err)
		}
		spec.Cabinets = append(spec.Cabinets, n)
	}
	var err error
	if spec.NodeSpeed, err = core.ParseFlops(speed); err != nil {
		return spec, err
	}
	if spec.NodeLinkBandwidth, err = core.ParseRate(bw); err != nil {
		return spec, err
	}
	if spec.NodeLinkLatency, err = core.ParseDuration(lat); err != nil {
		return spec, err
	}
	return spec, spec.Validate()
}
