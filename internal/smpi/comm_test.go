package smpi

import (
	"strings"
	"testing"
)

func TestDupIsolatesMatching(t *testing.T) {
	// A message sent on the dup must not match a receive on the world
	// communicator even with identical rank and tag.
	mustRun(t, testConfig(2), func(r *Rank) {
		world := r.Comm()
		dup := world.Dup(r)
		if dup == world {
			t.Error("Dup returned the same communicator")
		}
		if dup.Size() != world.Size() {
			t.Error("Dup changed the group")
		}
		if r.Rank() == 0 {
			r.Send(world, []byte{1}, 1, 5)
			r.Send(dup, []byte{2}, 1, 5)
		} else {
			buf := make([]byte, 1)
			r.Recv(dup, buf, 0, 5)
			if buf[0] != 2 {
				t.Errorf("dup recv got %d, want 2", buf[0])
			}
			r.Recv(world, buf, 0, 5)
			if buf[0] != 1 {
				t.Errorf("world recv got %d, want 1", buf[0])
			}
		}
	})
}

func TestDupSharedObjectAcrossRanks(t *testing.T) {
	var ids [2]int
	mustRun(t, testConfig(2), func(r *Rank) {
		dup := r.Comm().Dup(r)
		ids[r.Rank()] = dup.id
	})
	if ids[0] != ids[1] {
		t.Errorf("ranks got different dup comms: %d vs %d", ids[0], ids[1])
	}
}

func TestSequentialDupsDiffer(t *testing.T) {
	mustRun(t, testConfig(2), func(r *Rank) {
		a := r.Comm().Dup(r)
		b := r.Comm().Dup(r)
		if a == b {
			t.Error("two Dup calls returned the same communicator")
		}
	})
}

func TestSplitByParity(t *testing.T) {
	mustRun(t, testConfig(6), func(r *Rank) {
		world := r.Comm()
		color := r.Rank() % 2
		sub := world.Split(r, color, r.Rank())
		if sub == nil {
			t.Fatalf("rank %d got nil subcommunicator", r.Rank())
		}
		if sub.Size() != 3 {
			t.Errorf("rank %d: sub size = %d, want 3", r.Rank(), sub.Size())
		}
		if want := r.Rank() / 2; sub.RankOf(r) != want {
			t.Errorf("rank %d: sub rank = %d, want %d", r.Rank(), sub.RankOf(r), want)
		}
		// The subcommunicator works for collectives.
		out := make([]byte, 8)
		in := Int64sToBytes([]int64{int64(r.Rank())})
		sub.Allreduce(r, in, out, Int64, OpSum)
		// even ranks: 0+2+4=6; odd: 1+3+5=9
		want := int64(6)
		if color == 1 {
			want = 9
		}
		if got := BytesToInt64s(out)[0]; got != want {
			t.Errorf("rank %d sub-allreduce = %d, want %d", r.Rank(), got, want)
		}
	})
}

func TestSplitKeyOrdersRanks(t *testing.T) {
	mustRun(t, testConfig(4), func(r *Rank) {
		// Reverse order via descending keys.
		sub := r.Comm().Split(r, 0, -r.Rank())
		if want := 3 - r.Rank(); sub.RankOf(r) != want {
			t.Errorf("rank %d: sub rank %d, want %d", r.Rank(), sub.RankOf(r), want)
		}
	})
}

func TestSplitUndefined(t *testing.T) {
	mustRun(t, testConfig(4), func(r *Rank) {
		color := 0
		if r.Rank() == 3 {
			color = Undefined
		}
		sub := r.Comm().Split(r, color, 0)
		if r.Rank() == 3 {
			if sub != nil {
				t.Error("Undefined color should yield nil comm")
			}
			return
		}
		if sub == nil || sub.Size() != 3 {
			t.Errorf("rank %d: bad subcomm %v", r.Rank(), sub)
		}
	})
}

func TestWorldRankTranslation(t *testing.T) {
	mustRun(t, testConfig(4), func(r *Rank) {
		sub := r.Comm().Split(r, r.Rank()%2, 0)
		for i := 0; i < sub.Size(); i++ {
			wr := sub.WorldRank(i)
			if wr%2 != r.Rank()%2 {
				t.Errorf("sub rank %d maps to world %d with wrong parity", i, wr)
			}
		}
		g := sub.Group()
		if len(g) != sub.Size() {
			t.Error("Group() size mismatch")
		}
	})
}

func TestRankOfNonMember(t *testing.T) {
	// Every rank looks itself up in every rank's half of the split.
	subs := make([]*Comm, 4)
	split := func(r *Rank) {
		subs[r.Rank()] = r.Comm().Split(r, r.Rank()%2, 0)
		r.Comm().Barrier(r)
	}
	mustRun(t, testConfig(4), func(r *Rank) {
		split(r)
		for wr, sub := range subs {
			want := -1 // a rank of opposite parity is not a member
			if wr%2 == r.Rank()%2 {
				want = r.Rank() / 2
			}
			if got := sub.RankOf(r); got != want {
				t.Errorf("rank %d in the communicator of rank %d: RankOf = %d, want %d", r.Rank(), wr, got, want)
			}
		}
	})
	_, err := Run(testConfig(4), func(r *Rank) {
		split(r)
		if r.Rank() == 0 {
			r.Send(subs[1], nil, 0, 0)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "smpi: rank 0 is not a member of communicator ") {
		t.Errorf("send on a communicator of others: got %v, want the not-a-member panic", err)
	}
}

func TestSampleLocalIntegration(t *testing.T) {
	cfg := testConfig(2)
	execs := 0
	rep := mustRun(t, cfg, func(r *Rank) {
		for i := 0; i < 5; i++ {
			r.SampleLocal("kernel", 2, func() { execs++ })
		}
	})
	// 2 ranks x 2 samples = 4 executions, 6 replays.
	if execs != 4 {
		t.Errorf("burst executed %d times, want 4", execs)
	}
	if rep.BurstsExecuted != 4 || rep.BurstsReplayed != 6 {
		t.Errorf("report: executed %d replayed %d", rep.BurstsExecuted, rep.BurstsReplayed)
	}
}

func TestSampleGlobalIntegration(t *testing.T) {
	cfg := testConfig(4)
	execs := 0
	mustRun(t, cfg, func(r *Rank) {
		r.Comm().Barrier(r)
		for i := 0; i < 3; i++ {
			r.SampleGlobal("kernel", 2, func() { execs++ })
		}
	})
	if execs != 2 {
		t.Errorf("global burst executed %d times, want 2", execs)
	}
}

func TestSharedMallocIntegration(t *testing.T) {
	cfg := testConfig(4)
	rep := mustRun(t, cfg, func(r *Rank) {
		buf := r.SharedMalloc("data", 4000)
		if r.Rank() == 0 {
			buf[0] = 42
		}
		r.Comm().Barrier(r)
		if buf[0] != 42 {
			t.Errorf("rank %d does not see shared write", r.Rank())
		}
		r.SharedFree("data")
	})
	// 4000 bytes folded across 4 ranks: 1000 each.
	if rep.MaxPeakRSS != 1000 {
		t.Errorf("MaxPeakRSS = %v, want 1000", rep.MaxPeakRSS)
	}
}

func TestMallocAccounting(t *testing.T) {
	rep := mustRun(t, testConfig(2), func(r *Rank) {
		buf := r.Malloc(5000)
		r.Free(buf)
	})
	if rep.MaxPeakRSS != 5000 {
		t.Errorf("MaxPeakRSS = %v, want 5000", rep.MaxPeakRSS)
	}
}

func TestSampleFlops(t *testing.T) {
	rep := mustRun(t, testConfig(1), func(r *Rank) {
		r.SampleFlops(3e9) // 3 Gflop on 1 Gf/s node
	})
	if d := float64(rep.SimulatedTime) - 3; d > 1e-9 || d < -1e-9 {
		t.Errorf("SampleFlops charged %v, want 3s", rep.SimulatedTime)
	}
}
