package replay

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"smpigo/internal/core"
	"smpigo/internal/platform"
	"smpigo/internal/smpi"
	"smpigo/internal/trace"
)

func griffon(t *testing.T) *platform.Platform {
	t.Helper()
	p, err := platform.Griffon().Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// record runs app with tracing on and returns the trace plus the on-line
// simulated time.
func record(t *testing.T, plat *platform.Platform, procs int, app func(*smpi.Rank)) (*trace.Trace, core.Time) {
	t.Helper()
	tr := trace.New(procs)
	rep, err := smpi.Run(smpi.Config{Procs: procs, Platform: plat, Tracer: tr}, app)
	if err != nil {
		t.Fatal(err)
	}
	return tr, rep.SimulatedTime
}

// replayRun replays tr under cfg the way a launcher does: App's rank
// function on App's rank count.
func replayRun(tr *trace.Trace, cfg smpi.Config) (*smpi.Report, error) {
	app, procs, err := App(tr)
	if err != nil {
		return nil, err
	}
	cfg.Procs = procs
	return smpi.Run(cfg, app)
}

func scatterApp(chunk int64) func(*smpi.Rank) {
	return func(r *smpi.Rank) {
		c := r.Comm()
		var sendbuf []byte
		if r.Rank() == 0 {
			sendbuf = make([]byte, int64(r.Size())*chunk)
		}
		recvbuf := make([]byte, chunk)
		c.Scatter(r, sendbuf, recvbuf, 0)
	}
}

func TestReplayMatchesOnlineSamePlatform(t *testing.T) {
	// Replaying a trace on the platform it was recorded on must reproduce
	// the on-line prediction almost exactly: same messages, same model.
	plat := griffon(t)
	tr, online := record(t, plat, 8, scatterApp(256*core.KiB))
	rep, err := replayRun(tr, smpi.Config{Platform: plat})
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(float64(rep.SimulatedTime-online)) / float64(online)
	if rel > 0.02 {
		t.Errorf("replay %v vs online %v (%.1f%% off)", rep.SimulatedTime, online, rel*100)
	}
}

func TestReplayOnDifferentPlatform(t *testing.T) {
	// The off-line workflow: record on griffon, predict for gdx. The
	// replayed prediction should land near (not necessarily equal to) the
	// on-line prediction for gdx, since scatter is platform-independent in
	// behaviour.
	plat := griffon(t)
	tr, _ := record(t, plat, 8, scatterApp(256*core.KiB))
	gdx, err := platform.Gdx().Build()
	if err != nil {
		t.Fatal(err)
	}
	offline, err := replayRun(tr, smpi.Config{Platform: gdx})
	if err != nil {
		t.Fatal(err)
	}
	_, online := record(t, gdx, 8, scatterApp(256*core.KiB))
	rel := math.Abs(float64(offline.SimulatedTime-online)) / float64(online)
	if rel > 0.05 {
		t.Errorf("cross-platform replay %v vs online %v (%.1f%% off)",
			offline.SimulatedTime, online, rel*100)
	}
}

func TestTraceCapturesCollectiveDecomposition(t *testing.T) {
	plat := griffon(t)
	tr, _ := record(t, plat, 4, func(r *smpi.Rank) {
		c := r.Comm()
		buf := make([]byte, 1024)
		c.Bcast(r, buf, 0)
	})
	// A 4-rank binomial bcast moves 3 messages; each appears as an Isend
	// on the sender and an Irecv on the receiver.
	sends, recvs := 0, 0
	for _, stream := range tr.Streams {
		for _, ev := range stream {
			switch ev.Kind {
			case trace.Isend:
				sends++
			case trace.Irecv:
				recvs++
			}
		}
	}
	if sends != 3 || recvs != 3 {
		t.Errorf("bcast trace has %d sends / %d recvs, want 3/3", sends, recvs)
	}
}

func TestTraceWildcardResolved(t *testing.T) {
	plat := griffon(t)
	tr, _ := record(t, plat, 3, func(r *smpi.Rank) {
		c := r.Comm()
		if r.Rank() == 0 {
			buf := make([]byte, 1)
			r.Recv(c, buf, smpi.AnySource, smpi.AnyTag)
			r.Recv(c, buf, smpi.AnySource, smpi.AnyTag)
		} else {
			r.Send(c, []byte{byte(r.Rank())}, 0, 9)
		}
	})
	for _, ev := range tr.Streams[0] {
		if ev.Kind == trace.Irecv && ev.Peer < 0 {
			t.Error("wildcard receive left unresolved in trace")
		}
	}
	// And the resolved trace replays without deadlock.
	if _, err := replayRun(tr, smpi.Config{Platform: plat}); err != nil {
		t.Errorf("replay of wildcard trace failed: %v", err)
	}
}

func TestTraceSerializationRoundTrip(t *testing.T) {
	plat := griffon(t)
	tr, _ := record(t, plat, 4, func(r *smpi.Rank) {
		r.Elapse(0.5)
		c := r.Comm()
		buf := make([]byte, 2048)
		c.Bcast(r, buf, 0)
	})
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Procs != tr.Procs || back.Events() != tr.Events() {
		t.Fatalf("roundtrip lost events: %d/%d vs %d/%d",
			back.Procs, back.Events(), tr.Procs, tr.Events())
	}
	a, err := replayRun(tr, smpi.Config{Platform: plat})
	if err != nil {
		t.Fatal(err)
	}
	b, err := replayRun(back, smpi.Config{Platform: plat})
	if err != nil {
		t.Fatal(err)
	}
	if a.SimulatedTime != b.SimulatedTime {
		t.Errorf("serialized trace replays differently: %v vs %v", a.SimulatedTime, b.SimulatedTime)
	}
}

func TestTraceReadErrors(t *testing.T) {
	cases := []string{
		"",
		"nonsense",
		"procs 0",
		"procs 2\n5 S 0 0 10", // rank out of range
		"procs 2\n0 X 1",      // unknown kind
		"procs 2\n0 S 1 0",    // too few fields
		"procs 2\n0 C abc",    // bad float
	}
	for _, c := range cases {
		if _, err := trace.Read(strings.NewReader(c)); err == nil {
			t.Errorf("Read(%q) should fail", c)
		}
	}
}

func TestReplayValidation(t *testing.T) {
	if _, _, err := App(nil); err == nil {
		t.Error("nil trace should fail")
	}
	bad := trace.New(2)
	bad.Streams[0] = []trace.Event{{Kind: trace.Wait, Req: 0}}
	if _, _, err := App(bad); err == nil {
		t.Error("wait on unissued request should fail validation")
	}
	bad2 := trace.New(2)
	bad2.Streams[0] = []trace.Event{{Kind: trace.Isend, Peer: 7, Bytes: 1}}
	if _, _, err := App(bad2); err == nil {
		t.Error("peer out of range should fail validation")
	}
}

// TestUnrepresentableBurstFails: a recorded burst whose flop count is not
// finite on the replay host (1e300 s at griffon's speed overflows) fails
// the replay, naming the host, instead of deadlocking it.
func TestUnrepresentableBurstFails(t *testing.T) {
	for _, burst := range []string{"NaN", "+Inf", "1e300"} {
		tr, err := trace.Read(strings.NewReader("procs 1\n0 C " + burst))
		if err != nil {
			t.Fatal(err)
		}
		_, err = replayRun(tr, smpi.Config{Platform: griffon(t)})
		if err == nil || !strings.Contains(err.Error(), `host "griffon-0"`) || strings.Contains(err.Error(), "deadlock") {
			t.Errorf("burst %s: err = %v, want one naming host griffon-0", burst, err)
		}
	}
}

func TestComputeBurstsRecorded(t *testing.T) {
	plat := griffon(t)
	tr, online := record(t, plat, 2, func(r *smpi.Rank) {
		r.Compute(1e9) // 1s on a 1 Gf/s node
	})
	if online < 1 {
		t.Fatalf("online run took %v, want >= 1s", online)
	}
	rep, err := replayRun(tr, smpi.Config{Platform: plat})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(rep.SimulatedTime-online)) > 1e-9 {
		t.Errorf("compute replay %v vs online %v", rep.SimulatedTime, online)
	}
}
