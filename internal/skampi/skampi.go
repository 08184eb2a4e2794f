// Package skampi reproduces the role SKaMPI plays in the paper (Section 6):
// a ping-pong micro-benchmark between two nodes that produces the
// (message size, one-way time) dataset used to calibrate and to validate
// point-to-point models. The same driver runs on either simulation backend,
// so "SKaMPI on the real cluster" is the driver on the packet-level
// emulator and "SMPI's prediction" is the driver on the analytical backend.
package skampi

import (
	"fmt"

	"smpigo/internal/calibrate"
	"smpigo/internal/core"
	"smpigo/internal/platform"
	"smpigo/internal/smpi"
)

// defaultSizes returns the log-spaced message sizes of the paper's
// Figures 3-5: powers of two from 1 byte to 4 MiB, with midpoints for
// better segment-boundary resolution.
func defaultSizes() []int64 {
	var sizes []int64
	for s := int64(1); s <= 4*core.MiB; s *= 2 {
		sizes = append(sizes, s)
		if mid := s + s/2; s >= 8 && mid < 4*core.MiB {
			sizes = append(sizes, mid)
		}
	}
	return sizes
}

// PingPongConfig parameterizes a ping-pong run.
type PingPongConfig struct {
	// Base is the simulation config; Procs and Hosts are overridden.
	Base smpi.Config
	// A and B are the two endpoints.
	A, B *platform.Host
	// Sizes to measure; defaultSizes() if nil.
	Sizes []int64
	// Reps per size; the minimum round-trip is kept (SKaMPI style).
	// Defaults to 3.
	Reps int
}

// PingPong runs the benchmark and returns one calibration sample per size
// (one-way time = best round-trip / 2, SKaMPI's methodology).
func PingPong(cfg PingPongConfig) ([]calibrate.Sample, error) {
	if cfg.A == nil || cfg.B == nil || cfg.A == cfg.B {
		return nil, fmt.Errorf("skampi: need two distinct endpoints")
	}
	sizes := cfg.Sizes
	if sizes == nil {
		sizes = defaultSizes()
	}
	reps := cfg.Reps
	if reps <= 0 {
		reps = 3
	}
	run := cfg.Base
	run.Procs = 2
	run.Hosts = []*platform.Host{cfg.A, cfg.B}

	var largest int64
	for _, size := range sizes {
		largest = max(largest, size)
	}
	results := make([]calibrate.Sample, len(sizes))
	app := func(r *smpi.Rank) {
		c := r.Comm()
		// Only the message sizes matter to a ping-pong: one folded block
		// serves both ranks and every size, and no payload is moved.
		block := r.SharedMalloc("pingpong", int(largest))
		for i, size := range sizes {
			buf := block[:size]
			best := core.TimeForever
			for rep := 0; rep < reps; rep++ {
				c.Barrier(r)
				start := r.Now()
				if r.Rank() == 0 {
					r.Send(c, buf, 1, 0)
					r.Recv(c, buf, 1, 0)
				} else {
					r.Recv(c, buf, 0, 0)
					r.Send(c, buf, 0, 0)
				}
				if rtt := r.Now() - start; rtt < best {
					best = rtt
				}
			}
			if r.Rank() == 0 {
				results[i] = calibrate.Sample{Size: size, Time: float64(best) / 2}
			}
		}
	}
	if _, err := smpi.Run(run, app); err != nil {
		return nil, err
	}
	return results, nil
}

// RouteInfo returns the calibration route parameters (L0, B0) between two
// hosts of a platform.
func RouteInfo(p *platform.Platform, a, b *platform.Host) calibrate.RouteInfo {
	r := p.Route(a, b)
	return calibrate.RouteInfo{
		Latency:   float64(r.Latency),
		Bandwidth: r.Bottleneck(),
	}
}
