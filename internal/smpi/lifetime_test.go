package smpi

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"smpigo/internal/topology"
)

// TestMessagePathAllocatesNoGarbage is the allocation guard of the message
// path: what one more message costs the Go heap, measured as the slope
// between a 2-round and a 10-round exchange among 64 ranks on fattree64
// with folded buffers, so that neither the fixed cost of a run nor the first
// fill of the free lists counts. Before requests, envelopes, flows and LMM
// variables were recycled a message cost 16.5 mallocs and 1.1 KB.
//
// The "blocking" row goes through Alltoall's Sendrecv, where every object
// is recycled. The "application" row posts Irecv/Isend itself and documents
// what is deliberately not: the two Requests the application holds, which
// must stay readable for as long as it keeps them. The "emu" row runs the
// blocking exchange on the packet emulator (BackendEmu, whose default Impl
// is OpenMPI): its messages and the 1 KiB chunks of its port FIFOs are
// recycled by the run, and a hop event replaces its stream's head in the
// heap in place, so what is left is the one closure each eager message
// hands the emulator as its onDone (1 malloc, 32 B). Its bound catches an
// allocation per packet hop, of which a 1 KiB message makes several.
//
// Skipped under -short, which is what CI's race job passes: the race
// detector allocates on its own account and the slope means nothing there.
// The build job runs it without -race.
func TestMessagePathAllocatesNoGarbage(t *testing.T) {
	if testing.Short() {
		t.Skip("malloc counts are meaningless under the race detector")
	}
	const p, bs = 64, 1 << 10
	spec, err := topology.ParseSpec("fattree64")
	if err != nil {
		t.Fatal(err)
	}
	plat, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	blocking := func(r *Rank, send, recv []byte, _ []*Request) {
		r.Comm().Alltoall(r, send, recv)
	}
	for _, row := range []struct {
		name                string
		backend             Backend
		maxMallocs, maxByte float64
		exchange            func(r *Rank, send, recv []byte, reqs []*Request)
	}{
		{"blocking", BackendSurf, 2, 64, blocking},
		{"emu", BackendEmu, 1.1, 48, blocking},
		{"application", BackendSurf, 4, 512, func(r *Rank, send, recv []byte, reqs []*Request) {
			c, me := r.Comm(), r.Rank()
			for peer := 0; peer < p; peer++ {
				if peer != me {
					reqs = append(reqs, r.Irecv(c, recv[peer*bs:(peer+1)*bs], peer, 0))
				}
			}
			for peer := 0; peer < p; peer++ {
				if peer != me {
					reqs = append(reqs, r.Isend(c, send[peer*bs:(peer+1)*bs], peer, 0))
				}
			}
			r.WaitAll(reqs)
		}},
	} {
		cfg := Config{Procs: p, Platform: plat, Backend: row.backend}
		cfg.Algorithms.Alltoall = "pairwise"
		// run returns the mallocs, bytes and messages of one job of rounds
		// exchanges.
		run := func(rounds int) (mallocs, bytes uint64, messages int64) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rep := mustRun(t, cfg, func(r *Rank) {
				send, recv := r.SharedMalloc("send", p*bs), r.SharedMalloc("recv", p*bs)
				reqs := make([]*Request, 0, 2*p)
				for i := 0; i < rounds; i++ {
					row.exchange(r, send, recv, reqs)
				}
			})
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, rep.Messages
		}
		// The Go runtime allocates a little of its own now and then (sudog
		// and goroutine refills): take the floor of three runs.
		floor := func(rounds int) (mallocs, bytes uint64, messages int64) {
			mallocs, bytes, messages = run(rounds)
			for i := 0; i < 2; i++ {
				m, b, _ := run(rounds)
				mallocs, bytes = min(mallocs, m), min(bytes, b)
			}
			return
		}
		run(2) // warm-up: goroutine structs
		m2, b2, n2 := floor(2)
		m10, b10, n10 := floor(10)
		msgs := float64(n10 - n2)
		if want := int64(8 * p * (p - 1)); n10-n2 != want {
			t.Fatalf("%s: %d messages between 2 and 10 rounds, want %d", row.name, n10-n2, want)
		}
		mallocs := (float64(m10) - float64(m2)) / msgs
		byts := (float64(b10) - float64(b2)) / msgs
		t.Logf("%s: %.2f mallocs and %.1f B per message (2 rounds: %d mallocs, %d B for %d messages)",
			row.name, mallocs, byts, m2, b2, n2)
		if mallocs > row.maxMallocs || byts > row.maxByte {
			t.Errorf("%s: a message costs %.2f mallocs and %.1f B, want <= %g and <= %g B",
				row.name, mallocs, byts, row.maxMallocs, row.maxByte)
		}

		// The free lists die with their run: a second identical run fills
		// its own from scratch, so it allocates what the first did.
		if again, _, _ := floor(2); math.Abs(float64(again)-float64(m2)) > float64(m2)/1000 {
			t.Errorf("%s: an identical run allocated %d objects, then %d: runs share recycled objects",
				row.name, m2, again)
		}
	}
}

// TestFreeListsDieWithTheirRun: the recycled objects of one Run are never
// seen by the next one.
func TestFreeListsDieWithTheirRun(t *testing.T) {
	cfg := testConfig(8)
	var worlds []*world
	for i := 0; i < 2; i++ {
		mustRun(t, cfg, func(r *Rank) {
			if r.Rank() == 0 {
				worlds = append(worlds, r.w)
			}
			buf := r.SharedMalloc("buf", 8*256)
			r.Comm().Alltoall(r, buf, buf)
		})
	}
	first, second := worlds[0], worlds[1]
	if len(first.freeEnvs) == 0 || len(first.freeReqs) == 0 {
		t.Fatalf("nothing was recycled: %d envelopes, %d requests", len(first.freeEnvs), len(first.freeReqs))
	}
	envs := make(map[*envelope]bool)
	for _, env := range first.freeEnvs {
		envs[env] = true
	}
	for _, env := range second.freeEnvs {
		if envs[env] {
			t.Error("an envelope of the first run served the second")
		}
	}
	reqs := make(map[*Request]bool)
	for _, q := range first.freeReqs {
		reqs[q] = true
	}
	for _, q := range second.freeReqs {
		if reqs[q] {
			t.Error("a request of the first run served the second")
		}
	}
}

// TestUserRequestOutlivesItsWait: a Request the application holds is never
// recycled — Done and Status answer for its own operation after Wait, after
// WaitSome, and after a thousand blocking calls by the same rank have run
// through the free list.
func TestUserRequestOutlivesItsWait(t *testing.T) {
	sizes := []int{10, 20, 30, 100 << 10} // the last one is a rendezvous
	mustRun(t, testConfig(2), func(r *Rank) {
		c, me := r.Comm(), r.Rank()
		held := make([]*Request, len(sizes))
		for tag, n := range sizes {
			if me == 0 {
				held[tag] = r.Isend(c, make([]byte, n), 1, tag)
			} else {
				held[tag] = r.Irecv(c, make([]byte, n), AnySource, tag)
			}
		}
		check := func(when string, tags ...int) {
			for _, tag := range tags {
				var want Status // of a send
				if me == 1 {
					want = Status{Source: 0, Tag: tag, Count: sizes[tag]}
				}
				if q := held[tag]; !q.done.Done() || q.Status != want {
					t.Errorf("%s: rank %d request %d: done %v, status %+v, want %+v",
						when, me, tag, q.done.Done(), q.Status, want)
				}
			}
		}
		r.Wait(held[0])
		check("after Wait", 0)
		pending := append([]*Request(nil), held...)
		pending[0] = nil
		for left := len(sizes) - 1; left > 0; {
			for _, i := range r.WaitSome(pending) {
				check("after WaitSome", i)
				pending[i] = nil
				left--
			}
		}
		small := make([]byte, 8)
		for i := 0; i < 1000; i++ {
			r.Sendrecv(c, small, 1-me, 7, small, 1-me, 7)
		}
		check("after 1000 Sendrecvs", 0, 1, 2, 3)
	})
}

// TestRecvThenEnvelopeReuse: Recv takes and frees an envelope, and the next
// message is carried by the same object with nothing left of the first —
// eager and rendezvous. Rank 0 waits for an acknowledgement before it sends again, so
// there is strictly one message at a time.
func TestRecvThenEnvelopeReuse(t *testing.T) {
	for _, sizes := range [][2]int{{10, 20}, {128 << 10, 100 << 10}, {128 << 10, 20}} {
		payloads := [][]byte{fill(3, sizes[0]), fill(5, sizes[1])}
		var w *world
		mustRun(t, testConfig(2), func(r *Rank) {
			c := r.Comm()
			w = r.w
			for i, payload := range payloads {
				if r.Rank() == 0 {
					r.Send(c, payload, 1, 10+i)
					r.Recv(c, nil, 1, 99)
					continue
				}
				want := Status{Source: 0, Tag: 10 + i, Count: len(payload)}
				got := make([]byte, len(payload))
				if st := r.Recv(c, got, 0, AnyTag); st != want {
					t.Errorf("message %d: Recv = %+v, want %+v", i, st, want)
				}
				if !bytes.Equal(got, payload) {
					t.Errorf("message %d: payload differs", i)
				}
				r.Send(c, nil, 0, 99)
			}
		})
		// One envelope carried all four: two payloads, two acknowledgements.
		if w.messages != 4 || len(w.freeEnvs) != 1 {
			t.Fatalf("sizes %v: %d messages on %d envelopes, want 4 on 1", sizes, w.messages, len(w.freeEnvs))
		}
		if env := w.freeEnvs[0]; env.data != nil || env.srcBuf != nil || env.recvReq != nil || env.sendReq != nil || env.wire.Done() {
			t.Errorf("sizes %v: a free envelope still holds its last message: %+v", sizes, env)
		}
	}
}

// TestFailedRunsLeaveNoMapping: the folded memory of a run is unmapped when
// Run returns, also when a rank panicked and the others were unwound, so
// a service running failed jobs back to back does not grow.
func TestFailedRunsLeaveNoMapping(t *testing.T) {
	const runs, block = 50, 64 << 20
	before, ok := vmSize(t)
	if !ok {
		t.Skip("no /proc/self/status")
	}
	for i := 0; i < runs; i++ {
		_, err := Run(testConfig(8), func(r *Rank) {
			if r.Rank() != 0 {
				r.Recv(r.Comm(), nil, 0, 0) // parked until the run unwinds
				return
			}
			buf := r.SharedMalloc("big", block)
			for j := 0; j < len(buf); j += 4096 {
				buf[j] = 1
			}
			panic("rank 0 fails")
		})
		if err == nil || !strings.Contains(err.Error(), "rank 0 fails") {
			t.Fatalf("run %d: want rank 0's panic, got %v", i, err)
		}
	}
	after, _ := vmSize(t)
	if grown := after - before; grown >= 1<<30 {
		t.Errorf("VmSize grew by %.2f GiB over %d failed runs of a %d MiB folded block",
			float64(grown)/(1<<30), runs, block>>20)
	}
}

// vmSize returns the process's virtual size in bytes from /proc/self/status.
func vmSize(t *testing.T) (int64, bool) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmSize:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				t.Fatalf("VmSize line %q: %v", line, err)
			}
			return kb << 10, true
		}
	}
	t.Fatal("/proc/self/status has no VmSize line")
	return 0, false
}
