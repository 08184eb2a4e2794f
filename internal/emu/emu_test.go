package emu

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"smpigo/internal/core"
	"smpigo/internal/platform"
	"smpigo/internal/simix"
	"smpigo/internal/surf/actionheap"
)

// transferTime runs a single emulated transfer and returns its duration.
func transferTime(t *testing.T, impl MPIImpl, size int64, hops string) core.Time {
	t.Helper()
	p, err := platform.Griffon().Build()
	if err != nil {
		t.Fatal(err)
	}
	src := p.HostByID(0)
	dst := p.HostByID(1) // same cabinet
	if hops == "far" {
		dst = p.HostByID(60) // different cabinet
	}
	k := simix.New()
	n := NewNet(k, p, impl)
	k.AddModel(n)
	var done core.Time
	k.Spawn("s", func(pr *simix.Proc) {
		f := simix.NewFuture()
		n.Transfer(src, dst, size, f)
		pr.Wait(f)
		done = pr.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return done
}

func TestSmallMessageLatencyDominated(t *testing.T) {
	d := transferTime(t, OpenMPI(), 1, "near")
	// Overheads (28us) + 2x20us link latency + one tiny frame.
	if d < 60*core.Microsecond || d > 120*core.Microsecond {
		t.Errorf("1-byte transfer took %v, want 60-120us", d)
	}
}

func TestLargeMessageNearWireSpeed(t *testing.T) {
	size := int64(4 * core.MiB)
	d := transferTime(t, OpenMPI(), size, "near")
	effBw := float64(size) / float64(d)
	if effBw < 0.80*125e6 {
		t.Errorf("4MiB effective bandwidth %.3g, want >= 80%% of 125e6", effBw)
	}
	if effBw > 125e6 {
		t.Errorf("effective bandwidth %.3g exceeds wire speed", effBw)
	}
}

func TestMediumMessagesSlowerThanAffine(t *testing.T) {
	// The defining non-affine feature: effective bandwidth at 16-48 KiB is
	// clearly below the large-message effective bandwidth because of the
	// window ramp and eager copies.
	mid := transferTime(t, OpenMPI(), 32*core.KiB, "near")
	effMid := float64(32*core.KiB) / float64(mid)
	big := transferTime(t, OpenMPI(), 4*core.MiB, "near")
	effBig := float64(4*core.MiB) / float64(big)
	if effMid > 0.7*effBig {
		t.Errorf("mid-size effective bw %.3g not clearly below large-size %.3g", effMid, effBig)
	}
}

func TestProtocolSwitchVisibleAtThreshold(t *testing.T) {
	// Just below the eager threshold, time includes 2 copies; just above,
	// an extra round trip appears. Both must be monotone vs a much smaller
	// message, and the rendezvous penalty must be visible.
	below := transferTime(t, OpenMPI(), 63*core.KiB, "near")
	above := transferTime(t, OpenMPI(), 65*core.KiB, "near")
	if above <= below {
		t.Skip("rendezvous jump hidden by copy savings; acceptable")
	}
	if above-below > 2000*core.Microsecond {
		t.Errorf("protocol switch jump too large: %v -> %v", below, above)
	}
}

func TestCrossCabinetSlower(t *testing.T) {
	near := transferTime(t, OpenMPI(), 1024, "near")
	far := transferTime(t, OpenMPI(), 1024, "far")
	if far <= near {
		t.Errorf("cross-cabinet (%v) should be slower than intra-cabinet (%v)", far, near)
	}
}

func TestImplementationsDiffer(t *testing.T) {
	om := transferTime(t, OpenMPI(), 128*core.KiB, "near")
	mp := transferTime(t, MPICH2(), 128*core.KiB, "near")
	if om == mp {
		t.Error("OpenMPI and MPICH2 emulations should differ slightly")
	}
	rel := math.Abs(float64(om-mp)) / float64(om)
	if rel > 0.25 {
		t.Errorf("implementations differ by %.0f%%, want < 25%%", rel*100)
	}
}

func TestSelfMessageIsMemcpy(t *testing.T) {
	p, err := platform.Griffon().Build()
	if err != nil {
		t.Fatal(err)
	}
	k := simix.New()
	n := NewNet(k, p, OpenMPI())
	k.AddModel(n)
	var done core.Time
	k.Spawn("s", func(pr *simix.Proc) {
		f := simix.NewFuture()
		n.Transfer(p.HostByID(0), p.HostByID(0), 45e6, f)
		pr.Wait(f)
		done = pr.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 45MB at 450MB/s = 100ms plus overheads.
	if done < 0.09 || done > 0.2 {
		t.Errorf("self message took %v, want ~0.1s", done)
	}
}

func TestContentionAtSourcePort(t *testing.T) {
	// Two large simultaneous transfers from the same node share its
	// up-link: total time about twice a single transfer.
	p, err := platform.Griffon().Build()
	if err != nil {
		t.Fatal(err)
	}
	size := int64(4 * core.MiB)
	single := transferTime(t, OpenMPI(), size, "near")

	k := simix.New()
	n := NewNet(k, p, OpenMPI())
	k.AddModel(n)
	var last core.Time
	k.Spawn("s", func(pr *simix.Proc) {
		f1, f2 := simix.NewFuture(), simix.NewFuture()
		n.Transfer(p.HostByID(0), p.HostByID(1), size, f1)
		n.Transfer(p.HostByID(0), p.HostByID(2), size, f2)
		pr.Wait(f1)
		pr.Wait(f2)
		last = pr.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	ratio := float64(last) / float64(single)
	if ratio < 1.7 || ratio > 2.3 {
		t.Errorf("contended/single ratio = %.2f, want ~2", ratio)
	}
}

func TestDeterminism(t *testing.T) {
	a := transferTime(t, OpenMPI(), 100*core.KiB, "far")
	b := transferTime(t, OpenMPI(), 100*core.KiB, "far")
	if a != b {
		t.Errorf("non-deterministic emulation: %v vs %v", a, b)
	}
}

func TestMonotoneInSize(t *testing.T) {
	prev := core.Time(0)
	for _, size := range []int64{1, 256, 1024, 8 * core.KiB, 64 * core.KiB, 512 * core.KiB, 4 * core.MiB} {
		d := transferTime(t, OpenMPI(), size, "near")
		if d <= prev {
			t.Errorf("transfer time not monotone at %s: %v after %v", core.FormatBytes(size), d, prev)
		}
		prev = d
	}
}

func TestRampRound(t *testing.T) {
	n := &Net{impl: OpenMPI()} // InitWindow 4
	cases := []struct{ frame, want int }{
		{0, 0}, {3, 0}, {4, 1}, {11, 1}, {12, 2}, {27, 2}, {28, 3}, {1000, 3},
	}
	for _, c := range cases {
		if got := n.rampRound(c.frame); got != c.want {
			t.Errorf("rampRound(%d) = %d, want %d", c.frame, got, c.want)
		}
	}
}

func TestZeroByteControlMessage(t *testing.T) {
	d := transferTime(t, OpenMPI(), 0, "near")
	if d <= 0 || d > 150*core.Microsecond {
		t.Errorf("0-byte message took %v", d)
	}
}

// eagerNet is the reference event scheme the stream heads must reproduce
// bit for bit: every frame of a message is pushed when it is injected, and
// every forward is one Push. It shares Net's parameters, jitter stream and
// window ramp, and nothing of its event path.
type eagerNet struct {
	*Net
	heap actionheap.Heap[refEvent]
	busy map[*platform.Link]core.Time
}

// refEvent is packet pkt of message msgs[msg] arriving at the input of
// route link index hop.
type refEvent struct {
	msg, pkt, hop int32
}

func (r *eagerNet) inject(src, dst *platform.Host, size int64, start core.Time, ramp bool, onDone func(core.Time)) {
	id := int32(len(r.msgs))
	r.msgs = append(r.msgs, message{route: r.plat.Route(src, dst), size: size, onDone: onDone, wireScale: r.jitterScale()})
	m := &r.msgs[id]
	m.packets = int32(max(1, (size+r.impl.MSS-1)/r.impl.MSS))
	rtt := 2 * m.route.Latency
	for i := range m.packets {
		at := start + core.Duration(i)*r.impl.PerFrameCPU
		if ramp {
			at += core.Duration(r.rampRound(int(i))) * rtt
		}
		r.heap.Push(refEvent{msg: id, pkt: i}, at, nil)
	}
}

func (r *eagerNet) Advance(to core.Time) {
	for he, at, ok := r.heap.Peek(); ok && at <= to+1e-15; he, at, ok = r.heap.Peek() {
		r.heap.Pop()
		m := &r.msgs[he.msg]
		link := m.route.Links[he.hop]
		startTx := at
		if r.busy[link] > startTx {
			startTx = r.busy[link]
		}
		payload := min(m.size-int64(he.pkt)*r.impl.MSS, r.impl.MSS)
		r.busy[link] = startTx + core.Duration(float64(payload+r.impl.FrameOverhead)*m.wireScale/link.Bandwidth)
		if arrive := r.busy[link] + link.Latency; int(he.hop)+1 < len(m.route.Links) {
			r.heap.Push(refEvent{msg: he.msg, pkt: he.pkt, hop: he.hop + 1}, arrive, nil)
		} else if m.delivered++; m.delivered == m.packets {
			m.onDone(arrive)
		}
	}
}

// injector is an event scheme under test: Net, or the eagerNet reference.
type injector interface {
	inject(src, dst *platform.Host, size int64, start core.Time, ramp bool, onDone func(core.Time))
	Advance(to core.Time)
}

// send is one point-to-point transfer of an oracle scenario.
type send struct {
	src, dst *platform.Host
	size     int64
	start    core.Time
}

// drive runs sends, sorted by start date, through inj with Transfer's
// protocol switch (eager below impl.EagerThreshold, else RTS, CTS and the
// payload). Like Transfer, it issues each send SendOverhead before its first
// frame is due, so sends that start together are all issued before any of
// their frames is processed. It returns
// every onDone date in call order and the most transfers in flight at once.
func drive(inj injector, impl MPIImpl, sends []send) (dates []core.Time, maxActive int) {
	active := 0
	record := func(at core.Time) { dates = append(dates, at) }
	finish := func(at core.Time) { record(at); active-- }
	for _, s := range sends {
		inj.Advance(s.start - impl.SendOverhead)
		active++
		maxActive = max(maxActive, active)
		if s.size < impl.EagerThreshold {
			inj.inject(s.src, s.dst, s.size, s.start, true, finish)
			continue
		}
		inj.inject(s.src, s.dst, 0, s.start, false, func(rts core.Time) {
			record(rts)
			inj.inject(s.dst, s.src, 0, rts, false, func(cts core.Time) {
				record(cts)
				inj.inject(s.src, s.dst, s.size, cts, false, finish)
			})
		})
	}
	inj.Advance(core.TimeForever)
	return dates, maxActive
}

// TestStreamHeadsMatchEagerReference is the exactness oracle of the event
// path: on seeded random scenarios (eager and rendezvous sizes around the
// 64 KiB switch, several messages sharing ports, ties on start dates, both
// clusters and both MPI parameter sets), Net and the eager reference fire
// every onDone at bit-identical dates after the same number of pushes, and
// Net's heap never holds more than one entry per transfer in flight plus
// one per link. Some seed must hold more FIFO chunks at once than the
// platform has ports, so some port's FIFO links one chunk to the next.
//
// Measured dates rarely tie, so a third cluster and parameter set make them
// tie on purpose: with no per-frame cost, no jitter, start dates on a grid,
// and frame times and latencies that are powers of two, dates add up
// exactly, and only the sequence numbers order the packets that different
// streams bring to a port at the same date.
func TestStreamHeadsMatchEagerReference(t *testing.T) {
	tied := OpenMPI()
	tied.PerFrameCPU, tied.Jitter = 0, 0
	frame := float64(tied.MSS + tied.FrameOverhead)
	dyadic := platform.ClusterSpec{Name: "dyadic", Cabinets: []int{4, 4}, NodeSpeed: 1e9,
		NodeLinkBandwidth: frame * (1 << 17), NodeLinkLatency: 1.0 / (1 << 15),
		CabinetBackplaneBandwidth: frame * (1 << 19), CabinetBackplaneLatency: 1.0 / (1 << 18),
		UplinkBandwidth: frame * (1 << 18), UplinkLatency: 1.0 / (1 << 17),
		BackboneBandwidth: frame * (1 << 20), BackboneLatency: 1.0 / (1 << 18)}
	specs := []platform.ClusterSpec{platform.Griffon(), platform.Gdx(), dyadic}
	impls := []MPIImpl{OpenMPI(), MPICH2(), tied}
	plats := make([]*platform.Platform, len(specs))
	for i, spec := range specs {
		p, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		plats[i] = p
	}
	crossed := 0 // seeds where some port's FIFO spanned chunks
	for seed := int64(0); seed < 180; seed++ {
		rng := rand.New(rand.NewSource(seed))
		plat, impl := plats[seed%3], impls[seed/3%3]
		hosts := []*platform.Host{plat.HostByID(0), plat.HostByID(1), plat.HostByID(2)}
		for range 3 {
			hosts = append(hosts, plat.HostByID(rng.Intn(len(plat.Hosts()))))
		}
		sizes := []int64{0, 1, 1448, 64*core.KiB - 1, 64 * core.KiB, 64*core.KiB + 1}
		sends := make([]send, 2+rng.Intn(10))
		for i := range sends {
			s := send{src: hosts[rng.Intn(len(hosts))], dst: hosts[rng.Intn(len(hosts))], size: sizes[rng.Intn(len(sizes))]}
			for s.dst == s.src {
				s.dst = hosts[rng.Intn(len(hosts))]
			}
			switch rng.Intn(4) {
			case 0:
				s.size = 1 + rng.Int63n(256*core.KiB)
			case 1:
				s.size = core.MiB
			}
			if s.start = core.Time(rng.Intn(256)) / (1 << 17); i > 0 && rng.Intn(4) == 0 {
				s.start = sends[i-1].start // a tie
			}
			sends[i] = s
		}
		sort.SliceStable(sends, func(i, j int) bool { return sends[i].start < sends[j].start })

		var netStats, refStats actionheap.Stats
		net := NewNet(simix.New(), plat, impl)
		net.Instrument(&netStats, nil)
		ref := &eagerNet{Net: NewNet(simix.New(), plat, impl), busy: map[*platform.Link]core.Time{}}
		ref.heap.Stats = &refStats
		got, maxActive := drive(net, impl, sends)
		want, _ := drive(ref, impl, sends)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d onDone calls, reference %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d (%s on %s): onDone %d at %v, reference %v", seed, impl.Name, plat.Name, i, got[i], want[i])
			}
		}
		if netStats.Pushes != refStats.Pushes {
			t.Errorf("seed %d: %d pushes, reference %d", seed, netStats.Pushes, refStats.Pushes)
		}
		if bound := maxActive + len(plat.Links()); netStats.MaxLen > bound {
			t.Errorf("seed %d: heap held %d entries, want <= %d transfers in flight + %d links", seed, netStats.MaxLen, maxActive, len(plat.Links()))
		}
		// A chunk is allocated only when none is free, so len(net.chunks)
		// were in use at once: more than one per port means a port's FIFO
		// held two.
		if len(net.chunks) > len(plat.Links()) {
			crossed++
		}
	}
	if crossed == 0 {
		t.Errorf("no seed's FIFOs crossed a chunk boundary (%d entries): the oracle never read an entry past a port's first chunk", chunkEntries)
	}
}
