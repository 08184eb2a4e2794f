// Package nas implements the two NAS Parallel Benchmarks the paper's
// evaluation uses: DT (Data Traffic, Section 7.1.4) and EP (Embarrassingly
// Parallel, Section 7.3), written against the smpi API so the same code
// runs on the analytical backend (an SMPI simulation) and on the
// packet-level emulator (the "real cluster" stand-in).
//
// The task-graph structure and class-to-process-count table follow the NPB
// specification used by the paper: WH/BH use 21, 43 and 85 processes for
// classes A, B and C; SH uses 80, 192 and 448. Payload sizes are scaled so
// that class A/B runtimes land in the paper's observed range on a Gigabit
// cluster while remaining tractable for a simulation test suite.
package nas

import (
	"encoding/binary"
	"fmt"
	"strings"

	"smpigo/internal/core"
	"smpigo/internal/smpi"
)

// DTGraph selects the DT communication graph.
type DTGraph string

// The three DT graphs of the benchmark (paper Figures 13 and 14).
const (
	// BH (Black Hole) funnels data from many sources into a single sink.
	BH DTGraph = "BH"
	// WH (White Hole) distributes data from one source to many consumers.
	WH DTGraph = "WH"
	// SH (Shuffle) moves data through successive layers of processes.
	SH DTGraph = "SH"
)

// DTClass is a NPB problem class.
type DTClass byte

// Problem classes, smallest to largest, as used in the paper.
const (
	ClassS DTClass = 'S'
	ClassW DTClass = 'W'
	ClassA DTClass = 'A'
	ClassB DTClass = 'B'
	ClassC DTClass = 'C'
)

// dtClasses is the one DT class table, smallest class first: the process
// count of the tree graphs (WH, BH), the shuffle graph's layers×width
// layout (whose product is its process count), and the per-edge payload.
// The process counts follow the NPB table quoted in the paper (Section
// 7.1.4). The payloads are the repository's scaled equivalents of NPB's
// num_samples feature arrays: large enough that class A/B runtimes on a
// Gigabit cluster match the paper's seconds-scale measurements.
var dtClasses = []dtClassInfo{
	{ClassS, 5, 3, 4, 64 * int(core.KiB)},
	{ClassW, 11, 4, 8, 256 * int(core.KiB)},
	{ClassA, 21, 5, 16, 4 * int(core.MiB)},
	{ClassB, 43, 6, 32, 6 * int(core.MiB)},
	{ClassC, 85, 7, 64, 8 * int(core.MiB)},
}

// dtClassInfo is one row of dtClasses.
type dtClassInfo struct {
	class                        DTClass
	tree, layers, width, payload int
}

// dtClassOf returns class's row of dtClasses; ok is false outside it, where
// the row is all zeros.
func dtClassOf(class DTClass) (info dtClassInfo, ok bool) {
	for _, c := range dtClasses {
		if c.class == class {
			return c, true
		}
	}
	return dtClassInfo{}, false
}

// ParseDTClass resolves a class name, ignoring case and padding; the error
// lists the classes of the table.
func ParseDTClass(name string) (DTClass, error) {
	name = strings.ToUpper(strings.TrimSpace(name))
	if len(name) == 1 {
		if _, ok := dtClassOf(DTClass(name[0])); ok {
			return DTClass(name[0]), nil
		}
	}
	names := make([]string, len(dtClasses))
	for i, c := range dtClasses {
		names[i] = string(c.class)
	}
	last := len(names) - 1
	return 0, fmt.Errorf("want %s or %s", strings.Join(names[:last], ", "), names[last])
}

// DTProcs returns the number of MPI processes the benchmark requires.
func DTProcs(graph DTGraph, class DTClass) (int, error) {
	if c, ok := dtClassOf(class); ok {
		switch graph {
		case BH, WH:
			return c.tree, nil
		case SH:
			return c.layers * c.width, nil
		}
	}
	return 0, fmt.Errorf("nas: no DT configuration for graph %s class %c", graph, class)
}

// DTPayload returns the per-edge payload in bytes for a class, 0 for a
// class outside the table.
func DTPayload(class DTClass) int {
	c, _ := dtClassOf(class)
	return c.payload
}

// dtVerifyFlopsPerByte is the per-byte processing charge applied when a
// node consumes an array (checksum/verification work in real DT). The
// single BH sink consumes every array sequentially, which is what makes BH
// slower than WH in the paper's Figure 15.
const dtVerifyFlopsPerByte = 1.0

// DTConfig parameterizes a DT run.
type DTConfig struct {
	Graph DTGraph
	Class DTClass
	// PayloadBytes overrides the class payload (0 = class default).
	PayloadBytes int
	// Fold allocates the feature arrays with SharedMalloc (RAM folding,
	// the paper's Figure 16 "SMPI + RAM Folding" configuration). Folded
	// arrays hold undefined bytes — every rank writes the one shared block
	// and the simulator moves no payload between folded buffers — so with
	// Fold the run is for its timing and footprint, and Checksum is only
	// reproducible, not meaningful.
	Fold bool
}

// DTResult collects outcome data for verification.
type DTResult struct {
	// Checksum is the sink-side payload checksum (BH), the XOR of leaf
	// checksums (WH), or the XOR over the last layer (SH). It is data
	// computed by the application itself — on-line simulation — unless
	// DTConfig.Fold made that data undefined.
	Checksum uint64
}

// DT returns the benchmark application plus a result sink. Procs must
// equal DTProcs(cfg.Graph, cfg.Class).
func DT(cfg DTConfig) (func(*smpi.Rank), *DTResult) {
	res := &DTResult{}
	switch cfg.Graph {
	case BH, WH:
		return dtTree(cfg, res), res
	case SH:
		return dtShuffle(cfg, res), res
	default:
		panic(fmt.Sprintf("nas: unknown DT graph %q", cfg.Graph))
	}
}

// treeParent returns the parent of node i in the BFS-numbered 4-ary tree.
func treeParent(i int) int { return (i - 1) / 4 }

// treeChildren returns the children of node i among p nodes.
func treeChildren(i, p int) []int {
	var kids []int
	for k := 4*i + 1; k <= 4*i+4 && k < p; k++ {
		kids = append(kids, k)
	}
	return kids
}

func checksum(buf []byte) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i+8 <= len(buf); i += 8 {
		h ^= binary.LittleEndian.Uint64(buf[i:])
		h *= 1099511628211
	}
	return h
}

// dtAlloc allocates a feature array through the accounting allocator,
// folded or private.
func dtAlloc(r *smpi.Rank, cfg DTConfig, id string, size int) []byte {
	if cfg.Fold {
		return r.SharedMalloc(id, size)
	}
	return r.Malloc(size)
}

const tagDT = 77

// dtTree implements WH (root-to-leaves) and BH (leaves-to-root) over the
// 4-ary task tree of the paper's Figures 13/14.
func dtTree(cfg DTConfig, res *DTResult) func(*smpi.Rank) {
	payload := cfg.PayloadBytes
	if payload == 0 {
		payload = DTPayload(cfg.Class)
	}
	return func(r *smpi.Rank) {
		c := r.Comm()
		me, p := r.Rank(), r.Size()
		kids := treeChildren(me, p)
		buf := dtAlloc(r, cfg, "dt-feature", payload)

		if cfg.Graph == WH {
			// White hole: the source generates, interior nodes process and
			// forward, leaves verify.
			if me == 0 {
				fillDT(r, buf)
			} else {
				r.Recv(c, buf, treeParent(me), tagDT)
				r.Compute(dtVerifyFlopsPerByte * float64(len(buf)))
			}
			for _, kid := range kids {
				r.Send(c, buf, kid, tagDT)
			}
			// Leaves contribute their checksum; XOR-combine at the root.
			var sum uint64
			if len(kids) == 0 {
				sum = checksum(buf)
			}
			out := make([]byte, 8)
			c.Reduce(r, smpi.Int64sToBytes([]int64{int64(sum)}), out, smpi.Int64, smpi.OpBOr, 0)
			if me == 0 {
				res.Checksum = uint64(smpi.BytesToInt64s(out)[0])
			}
		} else {
			// Black hole: leaves generate, interior nodes consume all
			// children then emit, the sink verifies everything it drinks.
			if len(kids) == 0 {
				fillDT(r, buf)
			} else {
				scratch := dtAlloc(r, cfg, "dt-scratch", payload)
				for _, kid := range kids {
					r.Recv(c, scratch, kid, tagDT)
					// Consume: element-wise combine plus verification charge.
					smpi.OpBOr.Apply(buf[:len(buf)/8*8], scratch[:len(scratch)/8*8], smpi.Int64)
					r.Compute(dtVerifyFlopsPerByte * float64(len(scratch)))
				}
				if !cfg.Fold {
					r.Free(scratch)
				} else {
					r.SharedFree("dt-scratch")
				}
			}
			if me != 0 {
				r.Send(c, buf, treeParent(me), tagDT)
			} else {
				res.Checksum = checksum(buf)
			}
		}
		if cfg.Fold {
			r.SharedFree("dt-feature")
		} else {
			r.Free(buf)
		}
	}
}

// dtShuffle implements SH: data flows layer by layer, each node scattering
// quarters of its array to four nodes of the next layer.
func dtShuffle(cfg DTConfig, res *DTResult) func(*smpi.Rank) {
	payload := cfg.PayloadBytes
	if payload == 0 {
		payload = DTPayload(cfg.Class)
	}
	payload &^= 31 // keep quarters 8-byte aligned
	class, _ := dtClassOf(cfg.Class)
	layers, width := class.layers, class.width
	return func(r *smpi.Rank) {
		c := r.Comm()
		me, p := r.Rank(), r.Size()
		if layers*width != p {
			panic(fmt.Sprintf("nas: SH layout %dx%d != %d procs", layers, width, p))
		}
		layer, pos := me/width, me%width
		buf := dtAlloc(r, cfg, "dt-sh", payload)
		quarter := payload / 4

		if layer == 0 {
			fillDT(r, buf)
		} else {
			// Receive four quarters from the previous layer.
			reqs := make([]*smpi.Request, 4)
			for k := 0; k < 4; k++ {
				// The node at srcPos sends its k-th quarter to
				// (srcPos + k*width/4) % width; invert that map.
				src := (layer-1)*width + (pos-k*width/4%width+width)%width
				reqs[k] = r.Irecv(c, buf[k*quarter:(k+1)*quarter], src, tagDT)
			}
			r.WaitAll(reqs)
			r.Compute(dtVerifyFlopsPerByte * float64(payload))
		}
		if layer < layers-1 {
			// Shuffle quarters down to four nodes of the next layer.
			reqs := make([]*smpi.Request, 4)
			for k := 0; k < 4; k++ {
				dstPos := (pos + k*width/4) % width
				dst := (layer+1)*width + dstPos
				reqs[k] = r.Isend(c, buf[k*quarter:(k+1)*quarter], dst, tagDT)
			}
			r.WaitAll(reqs)
		}
		// Bottom layer folds its checksums together.
		var sum uint64
		if layer == layers-1 {
			sum = checksum(buf)
		}
		out := make([]byte, 8)
		c.Reduce(r, smpi.Int64sToBytes([]int64{int64(sum)}), out, smpi.Int64, smpi.OpBOr, 0)
		if me == 0 {
			res.Checksum = uint64(smpi.BytesToInt64s(out)[0])
		}
		if cfg.Fold {
			r.SharedFree("dt-sh")
		} else {
			r.Free(buf)
		}
	}
}

// fillDT generates the source feature array deterministically from the
// rank's seeded stream (real data: the checksums downstream depend on it).
func fillDT(r *smpi.Rank, buf []byte) {
	rng := r.RNG()
	for i := 0; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], rng.Uint64())
	}
}
