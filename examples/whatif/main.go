// What-if: the paper's Section 1 motivation — use simulation to evaluate a
// platform you have not bought yet. Starting from the calibrated griffon
// model, this example asks: what happens to a 32-rank pairwise all-to-all
// if the cabinet switch backplane is upgraded, or if the network achieves
// 30% higher large-message bandwidth (the paper's own example of modifying
// an instantiation)?
//
// Run with: go run ./examples/whatif
package main

import (
	"fmt"
	"log"

	"smpigo/internal/core"
	"smpigo/internal/experiments"
	"smpigo/internal/platform"
	"smpigo/internal/smpi"
	"smpigo/internal/surf"
)

const (
	procs = 32
	chunk = core.MiB
)

func alltoallTime(plat *platform.Platform, model surf.NetModel) float64 {
	var total float64
	app := func(r *smpi.Rank) {
		c := r.Comm()
		// Timing only: folded buffers (SMPI_SHARED_MALLOC) — 2 x 32 MiB for
		// the whole job instead of per rank, and no payload is copied.
		sendbuf := r.SharedMalloc("send", int(procs*chunk))
		recvbuf := r.SharedMalloc("recv", int(procs*chunk))
		c.Barrier(r)
		start := r.Now()
		c.Alltoall(r, sendbuf, recvbuf)
		if d := float64(r.Now() - start); d > total {
			total = d
		}
	}
	if _, err := smpi.Run(smpi.Config{Procs: procs, Platform: plat, Model: model}, app); err != nil {
		log.Fatal(err)
	}
	return total
}

func main() {
	env, err := experiments.NewEnv()
	if err != nil {
		log.Fatal(err)
	}

	baseline := alltoallTime(env.Griffon, env.Piecewise)
	fmt.Printf("baseline griffon, %d-rank all-to-all of %s blocks: %.3fs\n",
		procs, core.FormatBytes(chunk), baseline)

	// What if each cabinet switch had a 40 Gbps backplane?
	fat := platform.Griffon()
	fat.CabinetBackplaneBandwidth = 5e9
	fatPlat, err := fat.Build()
	if err != nil {
		log.Fatal(err)
	}
	upgraded := alltoallTime(fatPlat, env.Piecewise)
	fmt.Printf("with 40Gbps cabinet backplanes:                  %.3fs (%.0f%% faster)\n",
		upgraded, 100*(1-upgraded/baseline))

	// What if the interconnect reached 30% higher large-message rates?
	boosted := env.Piecewise
	boosted.Name = "piecewise+30%"
	boosted.Segments = append([]surf.Segment(nil), env.Piecewise.Segments...)
	last := len(boosted.Segments) - 1
	boosted.Segments[last].BwFactor *= 1.3
	faster := alltoallTime(env.Griffon, boosted)
	fmt.Printf("with 30%% faster large-message transfers:         %.3fs (%.0f%% faster)\n",
		faster, 100*(1-faster/baseline))
	if faster >= 0.99*baseline {
		fmt.Println("   (no effect: this all-to-all is backplane-bound, so a faster")
		fmt.Println("    point-to-point protocol buys nothing — the kind of insight")
		fmt.Println("    that makes what-if simulation worthwhile)")
	}

	fmt.Println("\n=> capacity planning without touching a single real node")
}
