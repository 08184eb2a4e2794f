package smpi

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"smpigo/internal/core"
)

// Wire-level folding: a buffer from Rank.SharedMalloc is timed, matched and
// counted like a private one, but no payload byte is moved for it.

// foldMode says which ranks take their buffers from SharedMalloc.
type foldMode int

const (
	allPrivate foldMode = iota
	allFolded
	evenFolded // mixed: a folded side meets a private side on most messages
	oddFolded
)

func (m foldMode) folds(rank int) bool {
	switch m {
	case allFolded:
		return true
	case evenFolded:
		return rank%2 == 0
	case oddFolded:
		return rank%2 == 1
	}
	return false
}

// foldCase is one collective call. alloc hands out the rank's buffers,
// folded or private according to the mode under test; ranks asking for the
// same id and size share one block.
type foldCase struct {
	name   string
	algos  Algorithms
	rooted bool
	call   func(r *Rank, c *Comm, alloc func(id string, n int) []byte, bs, root int)
}

// vCounts gives the v-variants uneven per-rank counts (multiples of 8).
func vCounts(p, bs int) ([]int, int) {
	counts := make([]int, p)
	total := 0
	for i := range counts {
		counts[i] = bs/2 + i%2*(bs/2)
		total += counts[i]
	}
	return counts, total
}

func foldCases() []foldCase {
	var cases []foldCase
	add := func(name string, algos Algorithms, rooted bool,
		call func(r *Rank, c *Comm, alloc func(string, int) []byte, bs, root int)) {
		cases = append(cases, foldCase{name, algos, rooted, call})
	}
	for _, algo := range []string{"binomial", "ring", "flat"} {
		add("bcast/"+algo, Algorithms{Bcast: algo}, true,
			func(r *Rank, c *Comm, alloc func(string, int) []byte, bs, root int) {
				c.Bcast(r, alloc("buf", bs), root)
			})
	}
	for _, algo := range []string{"binomial", "flat"} {
		add("scatter/"+algo, Algorithms{Scatter: algo}, true,
			func(r *Rank, c *Comm, alloc func(string, int) []byte, bs, root int) {
				var send []byte
				if r.Rank() == root {
					send = alloc("send", c.Size()*bs)
				}
				c.Scatter(r, send, alloc("recv", bs), root)
			})
		add("gather/"+algo, Algorithms{Gather: algo}, true,
			func(r *Rank, c *Comm, alloc func(string, int) []byte, bs, root int) {
				var recv []byte
				if r.Rank() == root {
					recv = alloc("recv", c.Size()*bs)
				}
				c.Gather(r, alloc("send", bs), recv, root)
			})
		add("reduce/"+algo, Algorithms{Reduce: algo}, true,
			func(r *Rank, c *Comm, alloc func(string, int) []byte, bs, root int) {
				c.Reduce(r, alloc("send", bs), alloc("recv", bs), Float64, OpSum, root)
			})
	}
	for _, algo := range []string{"ring", "gather-bcast"} {
		add("allgather/"+algo, Algorithms{Allgather: algo}, false,
			func(r *Rank, c *Comm, alloc func(string, int) []byte, bs, _ int) {
				c.Allgather(r, alloc("send", bs), alloc("recv", c.Size()*bs))
			})
	}
	for _, algo := range []string{"pairwise", "bruck", "flat"} {
		add("alltoall/"+algo, Algorithms{Alltoall: algo}, false,
			func(r *Rank, c *Comm, alloc func(string, int) []byte, bs, _ int) {
				c.Alltoall(r, alloc("send", c.Size()*bs), alloc("recv", c.Size()*bs))
			})
	}
	for _, algo := range []string{"recursive-doubling", "ring", "reduce-bcast"} {
		add("allreduce/"+algo, Algorithms{Allreduce: algo}, false,
			func(r *Rank, c *Comm, alloc func(string, int) []byte, bs, _ int) {
				c.Allreduce(r, alloc("send", bs), alloc("recv", bs), Float64, OpSum)
			})
	}
	add("scan", Algorithms{}, false,
		func(r *Rank, c *Comm, alloc func(string, int) []byte, bs, _ int) {
			c.Scan(r, alloc("send", bs), alloc("recv", bs), Float64, OpSum)
		})
	add("reducescatter", Algorithms{}, false,
		func(r *Rank, c *Comm, alloc func(string, int) []byte, bs, _ int) {
			counts, total := vCounts(c.Size(), bs)
			c.ReduceScatter(r, alloc("send", total), alloc("recv", bs), counts, Int64, OpSum)
		})
	add("scatterv", Algorithms{}, true,
		func(r *Rank, c *Comm, alloc func(string, int) []byte, bs, root int) {
			counts, total := vCounts(c.Size(), bs)
			var send []byte
			if r.Rank() == root {
				send = alloc("send", total)
			}
			c.Scatterv(r, send, counts, alloc("recv", bs), root)
		})
	add("gatherv", Algorithms{}, true,
		func(r *Rank, c *Comm, alloc func(string, int) []byte, bs, root int) {
			counts, total := vCounts(c.Size(), bs)
			var recv []byte
			if r.Rank() == root {
				recv = alloc("recv", total)
			}
			c.Gatherv(r, alloc("send", bs), recv, counts, root)
		})
	add("allgatherv", Algorithms{}, false,
		func(r *Rank, c *Comm, alloc func(string, int) []byte, bs, _ int) {
			counts, total := vCounts(c.Size(), bs)
			c.Allgatherv(r, alloc("send", bs), alloc("recv", total), counts)
		})
	add("alltoallv", Algorithms{}, false,
		func(r *Rank, c *Comm, alloc func(string, int) []byte, bs, _ int) {
			// Rank i sends (i+j)%3 eighths of a block to rank j.
			p, me := c.Size(), r.Rank()
			scounts, rcounts := make([]int, p), make([]int, p)
			stotal, rtotal := 0, 0
			for j := 0; j < p; j++ {
				scounts[j] = (me + j) % 3 * (bs / 8)
				rcounts[j] = (j + me) % 3 * (bs / 8)
				stotal += scounts[j]
				rtotal += rcounts[j]
			}
			c.Alltoallv(r, alloc("send", stotal), scounts, alloc("recv", rtotal), rcounts)
		})
	return cases
}

// foldOutcome is everything about a run that folding must not move.
type foldOutcome struct {
	simulated core.Time
	messages  int64
	bytes     int64
	perRank   string
}

func runFoldCase(t *testing.T, fc foldCase, backend Backend, p, bs, root int, mode foldMode) foldOutcome {
	t.Helper()
	cfg := testConfig(p)
	cfg.Backend = backend
	cfg.Algorithms = fc.algos
	done := make([]core.Time, p)
	rep := mustRun(t, cfg, func(r *Rank) {
		alloc := func(id string, n int) []byte {
			if mode.folds(r.Rank()) {
				return r.SharedMalloc(fmt.Sprintf("%s/%d", id, n), n)
			}
			return make([]byte, n)
		}
		fc.call(r, r.Comm(), alloc, bs, root)
		done[r.Rank()] = r.Now()
	})
	return foldOutcome{rep.SimulatedTime, rep.Messages, rep.BytesOnWire, fmt.Sprint(done)}
}

// TestFoldedBuffersTimeIdentically is the equivalence property: every
// collective, in every algorithm variant, on both backends, gives
// bit-identical simulated outcomes whether its buffers are private, folded,
// or folded on only some ranks.
func TestFoldedBuffersTimeIdentically(t *testing.T) {
	sizes := []int{0, 1 << 10, 128 << 10} // empty, eager, rendezvous
	for _, fc := range foldCases() {
		for backend, bname := range []string{BackendSurf: "surf", BackendEmu: "emu"} {
			backend := Backend(backend)
			t.Run(fc.name+"/"+bname, func(t *testing.T) {
				for _, p := range []int{2, 5, 8, 13} {
					roots := []int{0}
					if fc.rooted {
						roots = []int{0, p - 1}
					}
					for _, bs := range sizes {
						if testing.Short() && backend == BackendEmu && bs > 1<<10 && p > 5 {
							continue // packet-level rendezvous storms: full mode only
						}
						for _, root := range roots {
							want := runFoldCase(t, fc, backend, p, bs, root, allPrivate)
							for _, mode := range []foldMode{allFolded, evenFolded, oddFolded} {
								if got := runFoldCase(t, fc, backend, p, bs, root, mode); got != want {
									t.Errorf("p=%d bs=%d root=%d mode=%d:\n got %+v\nwant %+v", p, bs, root, mode, got, want)
								}
							}
						}
					}
				}
			})
		}
	}
}

// TestMixedFoldedPrivateMessage: when one side of a message is folded no
// byte moves, so the private side keeps exactly what it held.
func TestMixedFoldedPrivateMessage(t *testing.T) {
	for _, n := range []int{1 << 10, 128 << 10} { // eager, rendezvous
		for _, foldedSender := range []bool{true, false} {
			mustRun(t, testConfig(2), func(r *Rank) {
				c := r.Comm()
				private := bytes.Repeat([]byte{0xAA}, n)
				folded := r.SharedMalloc("folded", n)
				sender := r.Rank() == 0
				buf := private
				if sender == foldedSender {
					buf = folded
				}
				if sender {
					r.Send(c, buf, 1, 0)
				} else if st := r.Recv(c, buf, 0, 0); st.Count != n {
					t.Errorf("n=%d: Status.Count = %d", n, st.Count)
				}
				if !bytes.Equal(private, bytes.Repeat([]byte{0xAA}, n)) {
					t.Errorf("n=%d foldedSender=%v: rank %d's private bytes were touched", n, foldedSender, r.Rank())
				}
			})
		}
	}
}

// TestFoldedTruncationStillPanics: lengths are checked before any byte
// would move, folded or not.
func TestFoldedTruncationStillPanics(t *testing.T) {
	for _, n := range []int{1 << 10, 128 << 10} {
		_, err := Run(testConfig(2), func(r *Rank) {
			c := r.Comm()
			if r.Rank() == 0 {
				r.Send(c, r.SharedMalloc("send", n), 1, 0)
			} else {
				r.Recv(c, r.SharedMalloc("recv", n/2), 0, 0)
			}
		})
		if err == nil || !strings.Contains(err.Error(), "truncation") {
			t.Errorf("n=%d: want truncation panic, got %v", n, err)
		}
	}
}

// TestFoldedSubSliceAndFree: sub-slices of a folded block are folded too;
// after the last SharedFree the memory is private again and bytes move.
func TestFoldedSubSliceAndFree(t *testing.T) {
	mustRun(t, testConfig(2), func(r *Rank) {
		c := r.Comm()
		block := r.SharedMalloc("block", 256)
		want := fill(7, 64)
		if r.Rank() == 0 {
			r.Send(c, want, 1, 0)
		} else {
			r.Recv(c, block[64:128], 0, 0)
			if bytes.Equal(block[64:128], want) {
				t.Error("payload was copied into a folded sub-slice")
			}
		}
		c.Barrier(r)
		r.SharedFree("block")
		c.Barrier(r)
		if r.Rank() == 0 {
			r.Send(c, want, 1, 1)
		} else {
			r.Recv(c, block[64:128], 0, 1)
			if !bytes.Equal(block[64:128], want) {
				t.Error("freed block: payload must be delivered like any private buffer")
			}
		}
	})
}

// TestFoldedAlltoallAllocatesNoPayload is the allocation guard: 32 ranks
// exchanging 128 KiB blocks (the a2a_payload benchmark's larger job) used
// to allocate ~270 MB per run from private buffers; folded, what remains is
// the two 4 MiB blocks plus kernel objects, and it is an exact function of
// the inputs. The eager and Bruck rows pin the two allocations inside smpi:
// the per-message snapshot (31 MB here) and the collective's scratch (64 MB).
func TestFoldedAlltoallAllocatesNoPayload(t *testing.T) {
	const p = 32
	for _, tc := range []struct {
		algo string
		bs   int
	}{{"pairwise", 128 << 10}, {"pairwise", 32 << 10}, {"bruck", 32 << 10}} {
		cfg := testConfig(p)
		cfg.Algorithms.Alltoall = tc.algo
		run := func() uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			mustRun(t, cfg, func(r *Rank) {
				c := r.Comm()
				c.Alltoall(r, r.SharedMalloc("send", p*tc.bs), r.SharedMalloc("recv", p*tc.bs))
			})
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		run() // warm-up: routes, goroutine structs
		// The Go runtime adds a few KB of its own now and then (sudog and
		// goroutine refills), so compare the floors of two batches of runs.
		floor := func() uint64 { return min(run(), run(), run()) }
		a := floor()
		if a >= 16<<20 {
			t.Errorf("%s %d: folded alltoall allocated %.1f MB, want < 16 MB", tc.algo, tc.bs, float64(a)/(1<<20))
		}
		// The race detector allocates on its own, so the run-to-run
		// comparison skips under -short (the race job); CI's build job runs
		// it without -race.
		if testing.Short() {
			continue
		}
		b := floor()
		if diff := float64(a) - float64(b); diff > 0.001*float64(a) || -diff > 0.001*float64(a) {
			t.Errorf("%s %d: allocation not reproducible: %d then %d bytes", tc.algo, tc.bs, a, b)
		}
	}
}
