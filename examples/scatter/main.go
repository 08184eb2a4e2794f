// Scatter: the workload of the paper's Section 7.1.2 — a binomial-tree
// MPI_Scatter of 4 MiB chunks over 16 processes — run three ways:
//
//  1. SMPI's analytical backend with the contention-aware piece-wise model,
//  2. the same with contention disabled (what contention-blind simulators
//     predict — the white bars of Figure 7),
//  3. the packet-level testbed emulator (the "real cluster" stand-in).
//
// The no-contention prediction visibly underestimates the completion time;
// the contention-aware prediction tracks the emulated real run.
//
// Run with: go run ./examples/scatter
package main

import (
	"fmt"
	"log"

	"smpigo/internal/core"
	"smpigo/internal/experiments"
	"smpigo/internal/smpi"
)

const (
	procs = 16
	chunk = 4 * core.MiB
)

func scatterApp(perRank []float64) func(*smpi.Rank) {
	return func(r *smpi.Rank) {
		c := r.Comm()
		// Timing only: folded buffers (SMPI_SHARED_MALLOC) — one receive
		// block for all 16 ranks, and no payload is copied.
		var sendbuf []byte
		if r.Rank() == 0 {
			sendbuf = r.SharedMalloc("send", int(procs*chunk))
		}
		recvbuf := r.SharedMalloc("recv", int(chunk))
		c.Barrier(r)
		start := r.Now()
		c.Scatter(r, sendbuf, recvbuf, 0)
		perRank[r.Rank()] = float64(r.Now() - start)
	}
}

func main() {
	env, err := experiments.NewEnv()
	if err != nil {
		log.Fatal(err)
	}

	run := func(label string, cfg smpi.Config) []float64 {
		perRank := make([]float64, procs)
		cfg.Procs = procs
		if _, err := smpi.Run(cfg, scatterApp(perRank)); err != nil {
			log.Fatalf("%s: %v", label, err)
		}
		return perRank
	}

	smpiCfg := smpi.Config{Platform: env.Griffon, Model: env.Piecewise}
	noCont := smpiCfg
	noCont.NoContention = true
	emuCfg := smpi.Config{Platform: env.Griffon, Backend: smpi.BackendEmu}

	withC := run("smpi", smpiCfg)
	without := run("smpi-nocontention", noCont)
	real := run("emu", emuCfg)

	fmt.Printf("binomial scatter, %d ranks, %s chunks (times in seconds)\n\n", procs, core.FormatBytes(chunk))
	fmt.Printf("%4s  %12s  %14s  %12s\n", "rank", "contention", "no-contention", "emulated")
	for i := 0; i < procs; i++ {
		fmt.Printf("%4d  %12.3f  %14.3f  %12.3f\n", i, withC[i], without[i], real[i])
	}
	max := func(v []float64) float64 {
		m := 0.0
		for _, x := range v {
			if x > m {
				m = x
			}
		}
		return m
	}
	fmt.Printf("\ncompletion: contention %.3fs | no-contention %.3fs | emulated %.3fs\n",
		max(withC), max(without), max(real))
	fmt.Println("=> ignoring contention underestimates the scatter, as in the paper's Figure 7")
}
