package smpi

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"smpigo/internal/core"
)

// sizes exercised for every collective: 1 rank, powers of two, and awkward
// non-power-of-two counts.
var collectiveSizes = []int{1, 2, 3, 4, 5, 7, 8, 16}

// fill gives rank i a recognizable payload.
func fill(rank, n int) []byte {
	buf := make([]byte, n)
	for j := range buf {
		buf[j] = byte((rank*31 + j) % 251)
	}
	return buf
}

func forEachSize(t *testing.T, f func(t *testing.T, p int)) {
	t.Helper()
	for _, p := range collectiveSizes {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) { f(t, p) })
	}
}

func TestBcastVariants(t *testing.T) {
	for _, algo := range []string{"binomial", "ring", "flat"} {
		t.Run(algo, func(t *testing.T) {
			forEachSize(t, func(t *testing.T, p int) {
				cfg := testConfig(p)
				cfg.Algorithms.Bcast = algo
				root := p / 2
				want := fill(root, 100)
				mustRun(t, cfg, func(r *Rank) {
					buf := make([]byte, 100)
					if r.Rank() == root {
						copy(buf, want)
					}
					r.Comm().Bcast(r, buf, root)
					if !bytes.Equal(buf, want) {
						t.Errorf("rank %d got wrong bcast payload", r.Rank())
					}
				})
			})
		})
	}
}

func TestScatterVariants(t *testing.T) {
	for _, algo := range []string{"binomial", "flat"} {
		t.Run(algo, func(t *testing.T) {
			forEachSize(t, func(t *testing.T, p int) {
				cfg := testConfig(p)
				cfg.Algorithms.Scatter = algo
				for _, root := range []int{0, p - 1} {
					mustRun(t, cfg, func(r *Rank) {
						bs := 64
						var sendbuf []byte
						if r.Rank() == root {
							sendbuf = make([]byte, p*bs)
							for i := 0; i < p; i++ {
								copy(sendbuf[i*bs:(i+1)*bs], fill(i, bs))
							}
						}
						recvbuf := make([]byte, bs)
						r.Comm().Scatter(r, sendbuf, recvbuf, root)
						if !bytes.Equal(recvbuf, fill(r.Rank(), bs)) {
							t.Errorf("rank %d (root %d) got wrong chunk", r.Rank(), root)
						}
					})
				}
			})
		})
	}
}

func TestGatherVariants(t *testing.T) {
	for _, algo := range []string{"binomial", "flat"} {
		t.Run(algo, func(t *testing.T) {
			forEachSize(t, func(t *testing.T, p int) {
				cfg := testConfig(p)
				cfg.Algorithms.Gather = algo
				for _, root := range []int{0, p / 2} {
					mustRun(t, cfg, func(r *Rank) {
						bs := 48
						var recvbuf []byte
						if r.Rank() == root {
							recvbuf = make([]byte, p*bs)
						}
						r.Comm().Gather(r, fill(r.Rank(), bs), recvbuf, root)
						if r.Rank() == root {
							for i := 0; i < p; i++ {
								if !bytes.Equal(recvbuf[i*bs:(i+1)*bs], fill(i, bs)) {
									t.Errorf("root %d: chunk %d wrong", root, i)
								}
							}
						}
					})
				}
			})
		})
	}
}

func TestAllgatherVariants(t *testing.T) {
	for _, algo := range []string{"ring", "gather-bcast"} {
		t.Run(algo, func(t *testing.T) {
			forEachSize(t, func(t *testing.T, p int) {
				cfg := testConfig(p)
				cfg.Algorithms.Allgather = algo
				mustRun(t, cfg, func(r *Rank) {
					bs := 32
					recvbuf := make([]byte, p*bs)
					r.Comm().Allgather(r, fill(r.Rank(), bs), recvbuf)
					for i := 0; i < p; i++ {
						if !bytes.Equal(recvbuf[i*bs:(i+1)*bs], fill(i, bs)) {
							t.Errorf("rank %d: block %d wrong", r.Rank(), i)
						}
					}
				})
			})
		})
	}
}

func TestAlltoallVariants(t *testing.T) {
	for _, algo := range []string{"pairwise", "bruck", "flat"} {
		t.Run(algo, func(t *testing.T) {
			forEachSize(t, func(t *testing.T, p int) {
				cfg := testConfig(p)
				cfg.Algorithms.Alltoall = algo
				mustRun(t, cfg, func(r *Rank) {
					bs := 16
					me := r.Rank()
					sendbuf := make([]byte, p*bs)
					for dst := 0; dst < p; dst++ {
						// block (me -> dst) tagged by both endpoints
						for j := 0; j < bs; j++ {
							sendbuf[dst*bs+j] = byte((me*17 + dst*29 + j) % 249)
						}
					}
					recvbuf := make([]byte, p*bs)
					r.Comm().Alltoall(r, sendbuf, recvbuf)
					for src := 0; src < p; src++ {
						for j := 0; j < bs; j++ {
							want := byte((src*17 + me*29 + j) % 249)
							if recvbuf[src*bs+j] != want {
								t.Fatalf("rank %d block from %d byte %d: got %d want %d",
									me, src, j, recvbuf[src*bs+j], want)
							}
						}
					}
				})
			})
		})
	}
}

func TestReduceVariants(t *testing.T) {
	for _, algo := range []string{"binomial", "flat"} {
		t.Run(algo, func(t *testing.T) {
			forEachSize(t, func(t *testing.T, p int) {
				cfg := testConfig(p)
				cfg.Algorithms.Reduce = algo
				root := p - 1
				mustRun(t, cfg, func(r *Rank) {
					vals := []int64{int64(r.Rank()) + 1, int64(r.Rank()) * 2}
					var recvbuf []byte
					if r.Rank() == root {
						recvbuf = make([]byte, 16)
					}
					r.Comm().Reduce(r, Int64sToBytes(vals), recvbuf, Int64, OpSum, root)
					if r.Rank() == root {
						got := BytesToInt64s(recvbuf)
						wantA := int64(p * (p + 1) / 2)
						wantB := int64(p * (p - 1))
						if got[0] != wantA || got[1] != wantB {
							t.Errorf("reduce sum = %v, want [%d %d]", got, wantA, wantB)
						}
					}
				})
			})
		})
	}
}

func TestAllreduceVariants(t *testing.T) {
	for _, algo := range []string{"recursive-doubling", "reduce-bcast", "ring"} {
		t.Run(algo, func(t *testing.T) {
			forEachSize(t, func(t *testing.T, p int) {
				cfg := testConfig(p)
				cfg.Algorithms.Allreduce = algo
				mustRun(t, cfg, func(r *Rank) {
					in := Float64sToBytes([]float64{float64(r.Rank()), 1})
					out := make([]byte, 16)
					r.Comm().Allreduce(r, in, out, Float64, OpSum)
					got := BytesToFloat64s(out)
					if got[0] != float64(p*(p-1)/2) || got[1] != float64(p) {
						t.Errorf("rank %d allreduce = %v", r.Rank(), got)
					}
				})
			})
		})
	}
}

// TestAllreduceRingChunked drives the chunked ring path with a buffer big
// enough to split (elems >= p, uneven chunk sizes) and checks it agrees
// with the recursive-doubling result element-wise.
func TestAllreduceRingChunked(t *testing.T) {
	forEachSize(t, func(t *testing.T, p int) {
		elems := 2*p + 3 // uneven: the first few chunks get an extra element
		cfg := testConfig(p)
		cfg.Algorithms.Allreduce = "ring"
		mustRun(t, cfg, func(r *Rank) {
			in := make([]float64, elems)
			for i := range in {
				in[i] = float64(r.Rank()*elems + i)
			}
			out := make([]byte, elems*8)
			r.Comm().Allreduce(r, Float64sToBytes(in), out, Float64, OpSum)
			got := BytesToFloat64s(out)
			for i := range got {
				var want float64
				for rank := 0; rank < p; rank++ {
					want += float64(rank*elems + i)
				}
				if got[i] != want {
					t.Fatalf("rank %d elem %d = %v, want %v", r.Rank(), i, got[i], want)
				}
			}
		})
	})
}

func TestAllreduceMax(t *testing.T) {
	mustRun(t, testConfig(5), func(r *Rank) {
		in := Float64sToBytes([]float64{float64(r.Rank() * r.Rank())})
		out := make([]byte, 8)
		r.Comm().Allreduce(r, in, out, Float64, OpMax)
		if got := BytesToFloat64s(out)[0]; got != 16 {
			t.Errorf("max = %v, want 16", got)
		}
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	for _, algo := range []string{"dissemination", "tree"} {
		t.Run(algo, func(t *testing.T) {
			cfg := testConfig(6)
			cfg.Algorithms.Barrier = algo
			var exitTimes [6]core.Time
			var latestEntry core.Time
			mustRun(t, cfg, func(r *Rank) {
				d := core.Time(r.Rank()) * 0.5
				r.Elapse(d)
				if d > latestEntry {
					latestEntry = d
				}
				r.Comm().Barrier(r)
				exitTimes[r.Rank()] = r.Now()
			})
			for i, at := range exitTimes {
				if at < latestEntry {
					t.Errorf("rank %d left the barrier at %v, before the last entry %v", i, at, latestEntry)
				}
			}
		})
	}
}

func TestScattervGathervRoundTrip(t *testing.T) {
	forEachSize(t, func(t *testing.T, p int) {
		mustRun(t, testConfig(p), func(r *Rank) {
			c := r.Comm()
			counts := make([]int, p)
			total := 0
			for i := range counts {
				counts[i] = 8 * (i + 1)
				total += counts[i]
			}
			var sendbuf []byte
			if r.Rank() == 0 {
				sendbuf = make([]byte, total)
				off := 0
				for i := 0; i < p; i++ {
					copy(sendbuf[off:off+counts[i]], fill(i, counts[i]))
					off += counts[i]
				}
			}
			mine := make([]byte, counts[r.Rank()])
			c.Scatterv(r, sendbuf, counts, mine, 0)
			if !bytes.Equal(mine, fill(r.Rank(), counts[r.Rank()])) {
				t.Errorf("rank %d scatterv chunk wrong", r.Rank())
			}
			var gathered []byte
			if r.Rank() == 0 {
				gathered = make([]byte, total)
			}
			c.Gatherv(r, mine, gathered, counts, 0)
			if r.Rank() == 0 && !bytes.Equal(gathered, sendbuf) {
				t.Error("gatherv did not reassemble the scattered data")
			}
		})
	})
}

func TestAllgatherv(t *testing.T) {
	mustRun(t, testConfig(4), func(r *Rank) {
		counts := []int{4, 8, 12, 16}
		out := make([]byte, 40)
		r.Comm().Allgatherv(r, fill(r.Rank(), counts[r.Rank()]), out, counts)
		off := 0
		for i, n := range counts {
			if !bytes.Equal(out[off:off+n], fill(i, n)) {
				t.Errorf("rank %d: block %d wrong", r.Rank(), i)
			}
			off += n
		}
	})
}

func TestAlltoallv(t *testing.T) {
	mustRun(t, testConfig(3), func(r *Rank) {
		p, me := 3, r.Rank()
		scounts := make([]int, p)
		rcounts := make([]int, p)
		for i := 0; i < p; i++ {
			scounts[i] = 4 * (me + i + 1)
			rcounts[i] = 4 * (i + me + 1)
		}
		stotal, rtotal := 0, 0
		for i := 0; i < p; i++ {
			stotal += scounts[i]
			rtotal += rcounts[i]
		}
		sendbuf := make([]byte, stotal)
		off := 0
		for dst := 0; dst < p; dst++ {
			for j := 0; j < scounts[dst]; j++ {
				sendbuf[off] = byte((me*13 + dst*7 + j) % 200)
				off++
			}
		}
		recvbuf := make([]byte, rtotal)
		r.Comm().Alltoallv(r, sendbuf, scounts, recvbuf, rcounts)
		off = 0
		for src := 0; src < p; src++ {
			for j := 0; j < rcounts[src]; j++ {
				want := byte((src*13 + me*7 + j) % 200)
				if recvbuf[off] != want {
					t.Fatalf("rank %d from %d byte %d: got %d want %d", me, src, j, recvbuf[off], want)
				}
				off++
			}
		}
	})
}

func TestUnknownAlgorithmPanics(t *testing.T) {
	cfg := testConfig(2)
	cfg.Algorithms.Bcast = "quantum"
	ran := false
	_, err := Run(cfg, func(r *Rank) {
		ran = true
		r.Comm().Bcast(r, make([]byte, 8), 0)
	})
	if err == nil || !strings.Contains(err.Error(), `unknown bcast algorithm "quantum" (want auto, binomial, flat, ring)`) {
		t.Errorf("unknown algorithm: got %v, want an error listing bcast's variants", err)
	}
	if ran {
		t.Error("a rank body ran although the algorithm name is unknown")
	}
}

func TestCollectivesOnLargeMessages(t *testing.T) {
	// Above the eager threshold, collectives exercise rendezvous paths.
	mustRun(t, testConfig(4), func(r *Rank) {
		bs := int(128 * core.KiB)
		recv := make([]byte, bs)
		var send []byte
		if r.Rank() == 0 {
			send = make([]byte, 4*bs)
			for i := 0; i < 4; i++ {
				copy(send[i*bs:(i+1)*bs], fill(i, bs))
			}
		}
		r.Comm().Scatter(r, send, recv, 0)
		if !bytes.Equal(recv, fill(r.Rank(), bs)) {
			t.Errorf("rank %d large scatter wrong", r.Rank())
		}
	})
}
