// Package core provides the foundational types shared by every simulation
// substrate in this repository: simulated time, unit parsing and formatting,
// a deterministic random number generator, an indexed binary-heap event
// queue, and small ID allocators.
//
// Nothing in this package knows about MPI, networks, or CPUs; it is the
// dependency-free bottom of the stack.
package core

import (
	"fmt"
	"math"
)

// Time is a point on the simulated clock, in seconds. Simulated time is a
// float64 like in SimGrid: analytical models produce real-valued completion
// dates and the kernel advances to the minimum of them.
type Time float64

// Duration is a span of simulated time, in seconds.
type Duration = Time

// Microsecond is the unit of the paper's latencies and overheads.
const Microsecond Duration = 1e-6

// TimeForever is the sentinel date used by models that currently have no
// pending event. It compares greater than every reachable simulation date.
const TimeForever Time = math.MaxFloat64

// String formats the time with a unit chosen for readability.
func (t Time) String() string {
	switch abs := math.Abs(float64(t)); {
	case t == TimeForever:
		return "forever"
	case abs >= 1 || abs == 0:
		return fmt.Sprintf("%.6gs", float64(t))
	case abs >= 1e-3:
		return fmt.Sprintf("%.6gms", float64(t)*1e3)
	default:
		return fmt.Sprintf("%.6gµs", float64(t)*1e6)
	}
}

// Byte size constants (binary, as used throughout the paper).
const (
	KiB int64 = 1 << 10
	MiB int64 = 1 << 20
	GiB int64 = 1 << 30
)

// FormatBytes renders a byte count in the binary unit that reads best, e.g.
// "4MiB" or "512B". It is used by benchmark harnesses when printing the
// rows of the paper's figures.
func FormatBytes(n int64) string {
	switch {
	case n >= GiB && n%GiB == 0:
		return fmt.Sprintf("%dGiB", n/GiB)
	case n >= MiB && n%MiB == 0:
		return fmt.Sprintf("%dMiB", n/MiB)
	case n >= KiB && n%KiB == 0:
		return fmt.Sprintf("%dKiB", n/KiB)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// FormatRate renders a bandwidth in bits per second using decimal units, the
// convention for network links ("1Gbps", "10Gbps").
func FormatRate(bytesPerSec float64) string {
	bits := bytesPerSec * 8
	switch {
	case bits >= 1e9:
		return fmt.Sprintf("%.3gGbps", bits/1e9)
	case bits >= 1e6:
		return fmt.Sprintf("%.3gMbps", bits/1e6)
	case bits >= 1e3:
		return fmt.Sprintf("%.3gKbps", bits/1e3)
	default:
		return fmt.Sprintf("%.3gbps", bits)
	}
}
