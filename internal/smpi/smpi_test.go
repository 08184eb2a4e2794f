package smpi

import (
	"math"
	"strings"
	"testing"

	"smpigo/internal/core"
	"smpigo/internal/dynamics"
	"smpigo/internal/obs"
	"smpigo/internal/platform"
)

// testConfig returns a ready-to-run config on the griffon platform.
func testConfig(procs int) Config {
	plat, err := platform.Griffon().Build()
	if err != nil {
		panic(err)
	}
	return Config{Procs: procs, Platform: plat}
}

// mustRun runs app and fails the test on error.
func mustRun(t *testing.T, cfg Config, app func(*Rank)) *Report {
	t.Helper()
	rep, err := Run(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}, func(*Rank) {}); err == nil {
		t.Error("empty config should fail")
	}
	if _, err := Run(Config{Procs: 2}, func(*Rank) {}); err == nil {
		t.Error("missing platform should fail")
	}
}

func TestRankIdentity(t *testing.T) {
	seen := make([]bool, 4)
	mustRun(t, testConfig(4), func(r *Rank) {
		if r.Size() != 4 {
			t.Errorf("Size = %d, want 4", r.Size())
		}
		seen[r.Rank()] = true
		if r.host == nil {
			t.Error("rank has no host")
		}
	})
	for i, ok := range seen {
		if !ok {
			t.Errorf("rank %d never ran", i)
		}
	}
}

func TestSendRecvDataIntegrity(t *testing.T) {
	mustRun(t, testConfig(2), func(r *Rank) {
		c := r.Comm()
		if r.Rank() == 0 {
			r.Send(c, []byte("hello, smpi"), 1, 7)
		} else {
			buf := make([]byte, 11)
			st := r.Recv(c, buf, 0, 7)
			if string(buf) != "hello, smpi" {
				t.Errorf("received %q", buf)
			}
			if st.Source != 0 || st.Tag != 7 || st.Count != 11 {
				t.Errorf("status = %+v", st)
			}
		}
	})
}

func TestRendezvousSenderBlocksUntilRecv(t *testing.T) {
	// A 1 MiB message is above the eager threshold: the sender's Send must
	// not complete before the receiver posts its receive at t=1s.
	var sendDone, recvDone core.Time
	mustRun(t, testConfig(2), func(r *Rank) {
		c := r.Comm()
		buf := make([]byte, 1<<20)
		if r.Rank() == 0 {
			r.Send(c, buf, 1, 0)
			sendDone = r.Now()
		} else {
			r.Elapse(1.0)
			r.Recv(c, buf, 0, 0)
			recvDone = r.Now()
		}
	})
	if sendDone < 1.0 {
		t.Errorf("rendezvous send completed at %v, before the recv was posted", sendDone)
	}
	if recvDone < sendDone {
		t.Errorf("recv (%v) before send completion (%v)", recvDone, sendDone)
	}
}

func TestEagerSendCompletesImmediately(t *testing.T) {
	var sendDone core.Time
	mustRun(t, testConfig(2), func(r *Rank) {
		c := r.Comm()
		if r.Rank() == 0 {
			r.Send(c, make([]byte, 1024), 1, 0)
			sendDone = r.Now()
		} else {
			r.Elapse(1.0)
			r.Recv(c, make([]byte, 1024), 0, 0)
		}
	})
	if sendDone != 0 {
		t.Errorf("eager send completed at %v, want 0 (buffered)", sendDone)
	}
}

func TestEagerBufferReusableAfterSend(t *testing.T) {
	// Eager semantics snapshot the payload: overwriting the send buffer
	// after Send must not corrupt the message.
	mustRun(t, testConfig(2), func(r *Rank) {
		c := r.Comm()
		if r.Rank() == 0 {
			buf := []byte{1, 2, 3, 4}
			r.Send(c, buf, 1, 0)
			buf[0] = 99
		} else {
			buf := make([]byte, 4)
			r.Recv(c, buf, 0, 0)
			if buf[0] != 1 {
				t.Errorf("eager payload corrupted: %v", buf)
			}
		}
	})
}

func TestAnySourceAnyTag(t *testing.T) {
	mustRun(t, testConfig(3), func(r *Rank) {
		c := r.Comm()
		switch r.Rank() {
		case 1, 2:
			r.Send(c, []byte{byte(r.Rank())}, 0, 40+r.Rank())
		case 0:
			got := map[int]bool{}
			for i := 0; i < 2; i++ {
				buf := make([]byte, 1)
				st := r.Recv(c, buf, AnySource, AnyTag)
				if int(buf[0]) != st.Source {
					t.Errorf("payload %d does not match source %d", buf[0], st.Source)
				}
				if st.Tag != 40+st.Source {
					t.Errorf("tag %d for source %d", st.Tag, st.Source)
				}
				got[st.Source] = true
			}
			if !got[1] || !got[2] {
				t.Errorf("missing senders: %v", got)
			}
		}
	})
}

func TestNonOvertakingOrder(t *testing.T) {
	mustRun(t, testConfig(2), func(r *Rank) {
		c := r.Comm()
		if r.Rank() == 0 {
			for i := 0; i < 5; i++ {
				r.Send(c, []byte{byte(i)}, 1, 3)
			}
		} else {
			for i := 0; i < 5; i++ {
				buf := make([]byte, 1)
				r.Recv(c, buf, 0, 3)
				if int(buf[0]) != i {
					t.Errorf("message %d arrived out of order (got %d)", i, buf[0])
				}
			}
		}
	})
}

func TestTagSelectivity(t *testing.T) {
	mustRun(t, testConfig(2), func(r *Rank) {
		c := r.Comm()
		if r.Rank() == 0 {
			r.Send(c, []byte{1}, 1, 10)
			r.Send(c, []byte{2}, 1, 20)
		} else {
			buf := make([]byte, 1)
			r.Recv(c, buf, 0, 20)
			if buf[0] != 2 {
				t.Errorf("tag-20 recv got %d", buf[0])
			}
			r.Recv(c, buf, 0, 10)
			if buf[0] != 1 {
				t.Errorf("tag-10 recv got %d", buf[0])
			}
		}
	})
}

func TestSendToSelf(t *testing.T) {
	mustRun(t, testConfig(1), func(r *Rank) {
		c := r.Comm()
		rq := r.Irecv(c, make([]byte, 3), 0, 0)
		r.Send(c, []byte{7, 8, 9}, 0, 0)
		st := r.Wait(rq)
		if st.Count != 3 {
			t.Errorf("self message count %d", st.Count)
		}
	})
}

func TestSendrecvExchange(t *testing.T) {
	mustRun(t, testConfig(2), func(r *Rank) {
		c := r.Comm()
		me := byte(r.Rank())
		peer := 1 - r.Rank()
		out := []byte{me}
		in := make([]byte, 1)
		r.Sendrecv(c, out, peer, 0, in, peer, 0)
		if int(in[0]) != peer {
			t.Errorf("rank %d received %d, want %d", me, in[0], peer)
		}
	})
}

func TestWaitAnyAndTest(t *testing.T) {
	mustRun(t, testConfig(3), func(r *Rank) {
		c := r.Comm()
		switch r.Rank() {
		case 0:
			reqs := []*Request{
				r.Irecv(c, make([]byte, 1), 1, 0),
				r.Irecv(c, make([]byte, 1), 2, 0),
			}
			if ok, _ := r.Test(reqs[0]); ok {
				t.Error("Test true before any message sent")
			}
			i, st := r.WaitAny(reqs)
			if i != 1 || st.Source != 2 {
				t.Errorf("WaitAny = %d, %+v; want rank-2 message first", i, st)
			}
			r.Wait(reqs[0])
		case 1:
			r.Elapse(2.0)
			r.Send(c, []byte{1}, 0, 0)
		case 2:
			r.Send(c, []byte{2}, 0, 0)
		}
	})
}

func TestWaitSome(t *testing.T) {
	mustRun(t, testConfig(3), func(r *Rank) {
		c := r.Comm()
		switch r.Rank() {
		case 0:
			reqs := []*Request{
				r.Irecv(c, make([]byte, 1), 1, 0),
				r.Irecv(c, make([]byte, 1), 2, 0),
			}
			done := r.WaitSome(reqs)
			if len(done) == 0 {
				t.Error("WaitSome returned nothing")
			}
			r.WaitAll(reqs)
		default:
			r.Send(c, []byte{0}, 0, 0)
		}
	})
}

func TestWaitAnyAllNil(t *testing.T) {
	mustRun(t, testConfig(1), func(r *Rank) {
		if i, _ := r.WaitAny([]*Request{nil, nil}); i != -1 {
			t.Errorf("WaitAny(nil...) = %d, want -1", i)
		}
	})
}

func TestTruncationPanics(t *testing.T) {
	_, err := Run(testConfig(2), func(r *Rank) {
		c := r.Comm()
		if r.Rank() == 0 {
			r.Send(c, make([]byte, 100), 1, 0)
		} else {
			r.Recv(c, make([]byte, 10), 0, 0)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "truncation") {
		t.Errorf("want truncation panic, got %v", err)
	}
}

func TestDeadlockSurfacesAsError(t *testing.T) {
	_, err := Run(testConfig(2), func(r *Rank) {
		if r.Rank() == 0 {
			r.Recv(r.Comm(), make([]byte, 1), 1, 0) // never sent
		}
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("want deadlock error, got %v", err)
	}
}

func TestComputeAdvancesSimulatedTime(t *testing.T) {
	rep := mustRun(t, testConfig(1), func(r *Rank) {
		r.Compute(2e9) // 2 Gflop on a 1 Gf/s griffon node
	})
	if diff := float64(rep.SimulatedTime) - 2; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("simulated time %v, want 2s", rep.SimulatedTime)
	}
}

// TestUnrepresentableBurstFails: a compute burst no date completes (NaN or
// infinite flops, or an infinite delay) is the run's error, naming the
// host and the amount, not a deadlock.
func TestUnrepresentableBurstFails(t *testing.T) {
	for name, burst := range map[string]func(*Rank){
		"Compute(NaN)":  func(r *Rank) { r.Compute(math.NaN()) },
		"Compute(+Inf)": func(r *Rank) { r.Compute(math.Inf(1)) },
		"Elapse(NaN)":   func(r *Rank) { r.Elapse(core.Duration(math.NaN())) },
		"Elapse(+Inf)":  func(r *Rank) { r.Elapse(core.Duration(math.Inf(1))) },
	} {
		_, err := Run(testConfig(1), burst)
		if err == nil || !strings.Contains(err.Error(), `host "griffon-0"`) || strings.Contains(err.Error(), "deadlock") {
			t.Errorf("%s: err = %v, want one naming host griffon-0", name, err)
		}
	}
}

func TestDeterministicSimulatedTime(t *testing.T) {
	app := func(r *Rank) {
		c := r.Comm()
		buf := make([]byte, 128*core.KiB)
		if r.Rank() == 0 {
			for dst := 1; dst < r.Size(); dst++ {
				r.Send(c, buf, dst, 0)
			}
		} else {
			r.Recv(c, buf, 0, 0)
		}
	}
	a := mustRun(t, testConfig(4), app).SimulatedTime
	b := mustRun(t, testConfig(4), app).SimulatedTime
	if a != b {
		t.Errorf("non-deterministic: %v vs %v", a, b)
	}
}

func TestEmuBackendRuns(t *testing.T) {
	cfg := testConfig(2)
	cfg.Backend = BackendEmu
	rep := mustRun(t, cfg, func(r *Rank) {
		c := r.Comm()
		if r.Rank() == 0 {
			r.Send(c, make([]byte, 1<<20), 1, 0)
		} else {
			r.Recv(c, make([]byte, 1<<20), 0, 0)
		}
	})
	if rep.SimulatedTime <= 0 {
		t.Error("emu backend produced zero simulated time")
	}
}

// TestHostScheduleSlowsCompute makes a machine uneven the one way there is,
// an "@0s" schedule: griffon-0 at half speed doubles rank 0's 1e9-flop
// Compute and leaves rank 1's on griffon-1 alone, on both backends.
func TestHostScheduleSlowsCompute(t *testing.T) {
	for _, backend := range []Backend{BackendSurf, BackendEmu} {
		sched, err := dynamics.Parse("@0s host griffon-0 scale 0.5")
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(2)
		cfg.Backend, cfg.Dynamics = backend, sched
		done := make([]core.Time, 2)
		mustRun(t, cfg, func(r *Rank) {
			r.Compute(1e9) // 1 s on a 1 Gf/s griffon node
			done[r.Rank()] = r.Now()
		})
		if done[0] != 2 || done[1] != 1 {
			t.Errorf("backend %d: ranks finished at %v, want [2 1]", backend, done)
		}
	}
}

// TestLinkScheduleFailsOnEmu checks that a link event, which only the surf
// network model can apply, makes Run fail on the packet emulator instead of
// running the machine at nominal capacity.
func TestLinkScheduleFailsOnEmu(t *testing.T) {
	sched, err := dynamics.Parse("@0s link griffon-cab0-up scale 0.5")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(2)
	cfg.Backend, cfg.Dynamics = BackendEmu, sched
	if _, err := Run(cfg, func(r *Rank) { r.Compute(1e9) }); err == nil || !strings.Contains(err.Error(), "surf network model") {
		t.Errorf("Run with a link event on BackendEmu: err %v, want a missing surf network model", err)
	}
}

func TestReportTrafficStats(t *testing.T) {
	rep := mustRun(t, testConfig(2), func(r *Rank) {
		c := r.Comm()
		if r.Rank() == 0 {
			r.Send(c, make([]byte, 1000), 1, 0)
		} else {
			r.Recv(c, make([]byte, 1000), 0, 0)
		}
	})
	if rep.BytesOnWire != 1000 || rep.Messages != 1 {
		t.Errorf("traffic stats = %d bytes / %d msgs", rep.BytesOnWire, rep.Messages)
	}
}

func TestOversubscriptionPlacement(t *testing.T) {
	// More ranks than hosts wraps round-robin without error.
	plat := platform.New("tiny")
	plat.NewHost(1e9)
	plat.NewHost(1e9)
	// two hosts, no links needed if all traffic is loopback on same host
	cfg := Config{Procs: 4, Platform: plat}
	mustRun(t, cfg, func(r *Rank) {
		r.Compute(1e6)
	})
}

// TestDesignChoicesMoveThePrediction pins the direction of the two model
// switches an application cannot see but its predicted time depends on:
// sharing links slows a 16-rank 256 KiB alltoall down, and a message one
// byte under the eager threshold beats one at it (the rendezvous) when the
// receivers post 10 ms late.
func TestDesignChoicesMoveThePrediction(t *testing.T) {
	alltoall := func(r *Rank) {
		sendbuf := make([]byte, 16*256*core.KiB)
		recvbuf := make([]byte, 16*256*core.KiB)
		r.Comm().Alltoall(r, sendbuf, recvbuf)
	}
	lateRecv := func(size int64) func(*Rank) {
		return func(r *Rank) {
			c := r.Comm()
			buf := make([]byte, size)
			if r.Rank() == 0 {
				for dst := 1; dst < r.Size(); dst++ {
					r.Send(c, buf, dst, 0)
				}
			} else {
				r.Elapse(0.01)
				r.Recv(c, buf, 0, 0)
			}
		}
	}
	type setup struct {
		cfg Config
		app func(*Rank)
	}
	for _, tc := range []struct {
		name       string
		procs      int
		slow, fast setup
	}{
		{"contention on vs off", 16, setup{Config{}, alltoall}, setup{Config{NoContention: true}, alltoall}},
		{"rendezvous vs eager", 8, setup{Config{}, lateRecv(eagerThreshold)}, setup{Config{}, lateRecv(eagerThreshold - 1)}},
	} {
		run := func(s setup) core.Time {
			s.cfg.Procs, s.cfg.Platform = tc.procs, testConfig(tc.procs).Platform
			return mustRun(t, s.cfg, s.app).SimulatedTime
		}
		if slow, fast := run(tc.slow), run(tc.fast); !(slow > fast) {
			t.Errorf("%s: simulated %v vs %v, want the first slower", tc.name, slow, fast)
		}
	}
}

// linkTotals is a usage recorder that sums the bytes recorded on each link,
// by name: each run builds its own platform.
type linkTotals map[string]float64

func (l linkTotals) RecordLink(link *platform.Link, _, _ core.Time, bytes float64) {
	l[link.Name()] += bytes
}
func (linkTotals) RecordHost(*platform.Host, core.Time, core.Time, float64) {}

// TestEmuLinkUsageMatchesSurf runs one scatter on griffon on both network
// models with a usage recorder attached through Config.Stats. The flow model
// drains each message's bytes, the emulator frames them; both must put the
// same bytes on the same links, eager and rendezvous alike (the emulator's
// RTS/CTS record nothing).
func TestEmuLinkUsageMatchesSurf(t *testing.T) {
	for _, chunk := range []int{1 << 10, 64 << 10} {
		totals := map[Backend]linkTotals{}
		for _, backend := range []Backend{BackendSurf, BackendEmu} {
			cfg := testConfig(8)
			cfg.Backend = backend
			totals[backend] = linkTotals{}
			cfg.Stats = &obs.Stats{Usage: totals[backend]}
			mustRun(t, cfg, func(r *Rank) {
				var sendbuf []byte
				if r.Rank() == 0 {
					sendbuf = make([]byte, r.Size()*chunk)
				}
				r.Comm().Scatter(r, sendbuf, make([]byte, chunk), 0)
			})
		}
		surf, emu := totals[BackendSurf], totals[BackendEmu]
		if len(surf) == 0 || len(emu) != len(surf) {
			t.Errorf("chunk %d: surf records %d links, emu %d", chunk, len(surf), len(emu))
		}
		for l, want := range surf {
			if got := emu[l]; math.Abs(got-want) > 1e-9*want {
				t.Errorf("chunk %d: link %s carries %v B on emu, %v B on surf", chunk, l, got, want)
			}
		}
	}
}
