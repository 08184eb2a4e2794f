// Command calibrate performs the paper's Section 6 instantiation procedure:
// it runs the SKaMPI ping-pong benchmark between two nodes of the emulated
// testbed, fits the default-affine, best-fit-affine and piece-wise linear
// models, and prints the measurements, the fitted parameters, and each
// model's accuracy against the calibration data. The front ends read the
// griffon result from internal/experiments/calibration_data.go; regenerate it
// with go test ./internal/experiments/ -run CalibrationIsCurrent -update.
package main

import (
	"flag"
	"fmt"
	"os"

	"smpigo/internal/calibrate"
	"smpigo/internal/core"
	"smpigo/internal/experiments"
	"smpigo/internal/metrics"
	"smpigo/internal/platform"
)

func main() {
	platName := flag.String("platform", "griffon", "calibration platform: griffon or gdx")
	cross := flag.Bool("cross-cabinet", false, "calibrate across cabinets (3 switches) instead of within one")
	flag.Parse()
	if err := run(*platName, *cross); err != nil {
		fmt.Fprintln(os.Stderr, "calibrate:", err)
		os.Exit(1)
	}
}

func run(platName string, cross bool) error {
	var spec platform.ClusterSpec
	switch platName {
	case "griffon":
		spec = platform.Griffon()
	case "gdx":
		spec = platform.Gdx()
	default:
		return fmt.Errorf("unknown platform %q", platName)
	}
	plat, err := spec.Build()
	if err != nil {
		return err
	}
	a := plat.HostByID(0)
	b := plat.HostByID(1)
	if cross {
		for _, h := range plat.Hosts() {
			if h.Cabinet != a.Cabinet {
				b = h
				break
			}
		}
	}
	fmt.Printf("calibrating on %s between %s and %s (%d switch(es))\n",
		plat.Name, a.Name(), b.Name(), platform.SwitchHops(a, b))

	samples, info, fits, err := experiments.Calibrate(plat, a, b)
	if err != nil {
		return err
	}
	fmt.Printf("route: latency %.3gus, bottleneck %s\n\n",
		info.Latency*1e6, core.FormatRate(info.Bandwidth))
	fmt.Printf("%-10s %14s\n", "size", "one-way (us)")
	for _, s := range samples {
		fmt.Printf("%-10s %14.2f\n", core.FormatBytes(s.Size), s.Time*1e6)
	}

	fmt.Println()
	for _, m := range fits {
		var pred, ref []float64
		for _, s := range samples {
			pred = append(pred, calibrate.Predict(m, info, s.Size))
			ref = append(ref, s.Time)
		}
		fmt.Printf("model %-16s %s\n", m.Name+":", metrics.Summarize(pred, ref))
		for i, seg := range m.Segments {
			bound := "inf"
			if i < len(m.Segments)-1 {
				bound = core.FormatBytes(seg.MaxBytes)
			}
			fmt.Printf("  segment %d (< %-7s): latency x%.3f, bandwidth x%.3f\n",
				i+1, bound, seg.LatFactor, seg.BwFactor)
		}
	}
	return nil
}
