// Package emu is the packet-level testbed emulator that stands in for the
// real Grid'5000 clusters and MPI implementations of the paper's evaluation
// (griffon/gdx running OpenMPI and MPICH2). Reproducing the paper requires
// a ground truth to compare SMPI's analytical predictions against; since no
// physical cluster is available, this package provides a discrete-event,
// store-and-forward network simulator with the mechanisms that give real
// TCP/Ethernet MPI platforms their characteristic non-affine behaviour:
//
//   - MTU framing with per-frame header/interframe overhead;
//   - per-port FIFO serialization at every hop (genuine contention);
//   - a slow-start-like window ramp that penalizes medium-size messages;
//   - the eager/rendezvous protocol switch at 64 KiB, with buffered-copy
//     costs in eager mode and an RTS/CTS round-trip in rendezvous mode;
//   - per-message software overheads at sender and receiver.
//
// Distinct parameter sets emulate OpenMPI and MPICH2, which the paper's
// Figures 7 and 9 compare against each other and against SMPI.
//
// The emulator plugs into the same simix kernel as the analytical model, so
// the same application code runs unmodified on either backend — the paper's
// "on-line" property holds for both.
package emu

import (
	"fmt"
	"math/bits"
	"slices"

	"smpigo/internal/core"
	"smpigo/internal/platform"
	"smpigo/internal/simix"
	"smpigo/internal/surf"
	"smpigo/internal/surf/actionheap"
)

// MPIImpl is the parameter set of an emulated MPI implementation on an
// emulated TCP/Ethernet interconnect.
type MPIImpl struct {
	// Name labels the implementation ("OpenMPI", "MPICH2").
	Name string
	// EagerThreshold is the message size (bytes) at which the
	// implementation switches from eager (buffered) to rendezvous mode.
	EagerThreshold int64
	// SendOverhead and RecvOverhead are per-message software costs.
	SendOverhead core.Duration
	RecvOverhead core.Duration
	// CopyBandwidth is the memcpy speed used for eager-mode buffered
	// copies (one on each side) and for self-messages, in bytes/s.
	CopyBandwidth float64
	// MSS is the TCP maximum segment size (payload bytes per frame).
	MSS int64
	// FrameOverhead is the per-frame wire overhead (headers, preamble,
	// interframe gap), in bytes.
	FrameOverhead int64
	// InitWindow is the slow-start initial window in frames.
	InitWindow int
	// RampRounds caps the number of RTT-long doubling rounds the window
	// ramp can cost a single message.
	RampRounds int
	// PerFrameCPU is the per-frame processing cost at the sender
	// (interrupts, checksums).
	PerFrameCPU core.Duration
	// Jitter is the relative half-width of the deterministic pseudo-random
	// perturbation applied to each message's effective wire time and
	// software overheads, emulating the run-to-run noise of a real
	// testbed (OS scheduling, TCP timers). 0 disables it.
	Jitter float64
}

// OpenMPI returns the emulated OpenMPI 1.x parameter set.
func OpenMPI() MPIImpl {
	return MPIImpl{
		Name:           "OpenMPI",
		EagerThreshold: 64 * core.KiB,
		SendOverhead:   14 * core.Microsecond,
		RecvOverhead:   14 * core.Microsecond,
		CopyBandwidth:  450e6,
		MSS:            1448,
		FrameOverhead:  90,
		InitWindow:     4,
		RampRounds:     3,
		PerFrameCPU:    300 * 1e-9,
		Jitter:         0.05,
	}
}

// MPICH2 returns the emulated MPICH2 parameter set; slightly cheaper
// per-message software costs, slightly slower copies, same 64 KiB
// protocol switch.
func MPICH2() MPIImpl {
	return MPIImpl{
		Name:           "MPICH2",
		EagerThreshold: 64 * core.KiB,
		SendOverhead:   12 * core.Microsecond,
		RecvOverhead:   13 * core.Microsecond,
		CopyBandwidth:  420e6,
		MSS:            1448,
		FrameOverhead:  90,
		InitWindow:     2,
		RampRounds:     3,
		PerFrameCPU:    350 * 1e-9,
		Jitter:         0.05,
	}
}

// Net is the packet-level network model. It implements simix.Model.
type Net struct {
	kernel *simix.Kernel
	plat   *platform.Platform
	impl   MPIImpl

	now core.Time
	// events shares the surf models' completion-date heap, holding the
	// head of each sorted stream of hop events (a message's injection, a
	// port's FIFO) rather than every event. Each event keeps the sequence
	// number a Push at its scheduling would have taken, so this k-way merge
	// pops in exactly the order a heap of every event would: one event-path
	// implementation and one determinism contract across backends.
	events actionheap.Heap[hopEvent]
	ports  []port // by Link.ID
	// chunks holds the ports' FIFOs, chunk c at chunks[c-1]. A chunk is
	// allocated only when freeChunks is empty and is never copied, so a run
	// allocates its peak number of chunks in use.
	chunks     []*fifoChunk
	freeChunks int32 // empty chunks, chained through next
	// msgs holds the messages, in flight or recycled, indexed by
	// hopEvent.msg; msgs[0] is the empty sentinel. inject may grow it, so a *message into it
	// must not be held across an inject.
	msgs     []message
	freeMsgs int32 // recycled messages, chained through next
	rng      *core.RNG
	usage    surf.UsageRecorder
}

// port is a link's output: its serialization horizon and the FIFO of
// packets sent down the link that have not yet reached the next hop. The
// FIFO is a list of chunks, from entry first of chunk head to the entry
// before end of chunk tail; head is 0 when it is empty. Its head entry is
// the port's stream entry in the heap.
type port struct {
	busyUntil  core.Time
	head, tail int32
	first, end int32
}

// fifoEntry is packet pkt of message msgs[msg], due at the input of the hop
// after its port's link under sequence number seq.
type fifoEntry struct {
	due      core.Time
	seq      uint64
	msg, pkt int32
}

// chunkEntries fills a fifoChunk to 1016 bytes, which the allocator serves
// from its 1 KiB size class: larger chunks strand more partly used space
// at each busy port, smaller ones cost more mallocs.
const chunkEntries = 42

// fifoChunk is a run of FIFO entries and the index of the chunk after it.
// It holds no pointer, so the garbage collector never scans one.
type fifoChunk struct {
	entries [chunkEntries]fifoEntry
	next    int32
}

// message is one wire transfer (control or payload) in flight. It is cut
// into packets of MSS payload bytes, the last one carrying the rest; a
// zero-byte message is one empty packet. It is also its own injection
// stream: frame i is due at frameDue(i) under sequence number seq+i.
type message struct {
	route              platform.Route
	size               int64
	packets, delivered int32
	wireScale          float64 // per-message jitter on effective wire time
	onDone             func(at core.Time)
	start              core.Time
	ramp               bool
	seq                uint64
	next               int32 // free list
}

// hopEvent is packet pkt of message msgs[msg] arriving at the input of
// its next hop: the first link of its route when port is 0, else the link
// after the one of ID port-1 on it. It holds no pointer, but the heap's
// entry around it does (the position pointer of re-keyed entries), so the
// heap's sifts run the GC write barrier while a collection is marking.
type hopEvent struct {
	msg, pkt, port int32
}

// NewNet creates an emulated network over plat with the given MPI
// implementation parameters.
func NewNet(kernel *simix.Kernel, plat *platform.Platform, impl MPIImpl) *Net {
	return &Net{
		kernel: kernel,
		plat:   plat,
		impl:   impl,
		ports:  make([]port, len(plat.Links())),
		msgs:   make([]message, 1),
		rng:    core.NewRNG(0x7e57bed ^ uint64(len(impl.Name))),
	}
}

// jitterScale draws the per-message perturbation factor in
// [1-Jitter/2, 1+Jitter/2]. The stream is seeded, so runs stay
// deterministic while successive messages vary like on a real testbed.
func (n *Net) jitterScale() float64 {
	if n.impl.Jitter <= 0 {
		return 1
	}
	return 1 + float64(n.impl.Jitter*(n.rng.Float64()-0.5))
}

// Instrument attaches packet-hop heap counters and a usage recorder, as
// surf's Instrument does; nil detaches either. The recorder receives each
// frame's payload, not its overhead, on each link over its transmission.
func (n *Net) Instrument(heap *actionheap.Stats, usage surf.UsageRecorder) {
	n.events.Stats, n.usage = heap, usage
}

// Transfer emulates an MPI point-to-point payload of size bytes from src to
// dst, fulfilling future at the time the receive completes. Must be called
// from actor context.
func (n *Net) Transfer(src, dst *platform.Host, size int64, future *simix.Future) {
	n.now = n.kernel.Now()
	if src == dst {
		d := n.impl.SendOverhead + n.impl.RecvOverhead +
			core.Duration(float64(size)/n.impl.CopyBandwidth)
		n.kernel.FulfillAt(future, n.now+d)
		return
	}
	if size < n.impl.EagerThreshold {
		// Eager: copy into the send buffer, push to the wire immediately,
		// copy out on the receive side.
		copyCost := core.Duration(float64(size) / n.impl.CopyBandwidth)
		start := n.now + n.impl.SendOverhead + copyCost
		n.inject(src, dst, size, start, true, func(at core.Time) {
			n.kernel.FulfillAt(future, at+n.impl.RecvOverhead+copyCost)
		})
		return
	}

	// Rendezvous: RTS to the receiver, CTS back, then the (zero-copy)
	// payload rides a warmed-up connection with no window ramp.
	rtsStart := n.now + n.impl.SendOverhead
	n.inject(src, dst, 0, rtsStart, false, func(rtsAt core.Time) {
		n.inject(dst, src, 0, rtsAt, false, func(ctsAt core.Time) {
			n.inject(src, dst, size, ctsAt, false, func(at core.Time) {
				n.kernel.FulfillAt(future, at+n.impl.RecvOverhead)
			})
		})
	})
}

// inject schedules the frames of a message from src to dst onto the first
// port of its route starting at date start, reserving their sequence
// numbers; ramp selects whether the slow-start window ramp gates frame
// injection. It panics on a route that lists a link twice: a packet in a
// port's FIFO finds its next hop by the port link's place on its route.
func (n *Net) inject(src, dst *platform.Host, size int64, start core.Time, ramp bool, onDone func(core.Time)) {
	id := n.freeMsgs
	if id != 0 {
		n.freeMsgs = n.msgs[id].next
	} else {
		id = int32(len(n.msgs))
		n.msgs = append(n.msgs, message{})
	}
	m := &n.msgs[id]
	*m = message{route: n.plat.RouteInto(m.route.Links[:0], src, dst), size: size,
		packets: int32(max(1, (size+n.impl.MSS-1)/n.impl.MSS)), wireScale: n.jitterScale(),
		onDone: onDone, start: start, ramp: ramp}
	for i, l := range m.route.Links {
		if slices.Contains(m.route.Links[i+1:], l) {
			panic(fmt.Sprintf("emu: the route from %s to %s lists link %s twice", src.Name(), dst.Name(), l.Name()))
		}
	}
	m.seq = n.events.Reserve(int(m.packets))
	n.events.PushSeq(hopEvent{msg: id}, n.frameDue(m, 0), m.seq, nil)
}

// frameDue returns the date frame i of m enters the first port.
func (n *Net) frameDue(m *message, i int32) core.Time {
	at := m.start + core.Duration(core.Duration(i)*n.impl.PerFrameCPU)
	if m.ramp {
		at += core.Duration(core.Duration(n.rampRound(int(i))) * (2 * m.route.Latency))
	}
	return at
}

// rampRound returns the slow-start round frame i falls into: the window
// starts at InitWindow frames and doubles every round-trip, so frame i
// waits floor(log2(i/W0+1)) RTTs, capped at RampRounds.
func (n *Net) rampRound(i int) int {
	w0 := n.impl.InitWindow
	if w0 <= 0 || i < w0 {
		return 0
	}
	r := bits.Len64(uint64(i/w0+1)) - 1
	if r > n.impl.RampRounds {
		r = n.impl.RampRounds
	}
	return r
}

// NextEvent implements simix.Model: an O(1) peek at the earliest scheduled
// packet-hop date.
func (n *Net) NextEvent() core.Time {
	return n.events.NextDue()
}

// Advance implements simix.Model: processes every packet-hop event up to
// date to. Processing an event may schedule new events (the next hop, or —
// via message completion callbacks — new messages).
func (n *Net) Advance(to core.Time) {
	for {
		he, at, ok := n.events.Peek()
		if !ok || at > to+1e-15 {
			break
		}
		n.now = at
		n.next(he)
		n.processHop(he, at)
	}
	if to > n.now {
		n.now = to
	}
}

// next takes the heap's top event he off its stream and puts the stream's
// next event, the message's next frame or the next packet in its port's
// FIFO, in its place with one sift; a stream that ends is popped.
func (n *Net) next(he hopEvent) {
	if he.port == 0 {
		m := &n.msgs[he.msg]
		if i := he.pkt + 1; i < m.packets {
			n.events.ReplaceTop(hopEvent{msg: he.msg, pkt: i}, n.frameDue(m, i), m.seq+uint64(i))
		} else {
			n.events.Pop()
		}
		return
	}
	p := &n.ports[he.port-1]
	if p.first++; p.head == p.tail && p.first == p.end {
		n.freeChunk(p.head)
		p.head, p.tail = 0, 0
		n.events.Pop()
		return
	}
	if p.first == chunkEntries {
		c := p.head
		p.head, p.first = n.chunks[c-1].next, 0
		n.freeChunk(c)
	}
	e := &n.chunks[p.head-1].entries[p.first]
	n.events.ReplaceTop(hopEvent{msg: e.msg, pkt: e.pkt, port: he.port}, e.due, e.seq)
}

// processHop transmits the packet of he down its link. The message's
// onDone runs last, after the message went back to the free list: it may
// inject, which may move n.msgs under m.
func (n *Net) processHop(he hopEvent, at core.Time) {
	m := &n.msgs[he.msg]
	hop := 0
	if he.port != 0 { // the hop after the port's link, which inject made unique on the route
		for m.route.Links[hop].ID != int(he.port-1) {
			hop++
		}
		hop++
	}
	link := m.route.Links[hop]
	p := &n.ports[link.ID]
	startTx := at
	if p.busyUntil > startTx {
		startTx = p.busyUntil
	}
	payload := min(m.size-int64(he.pkt)*n.impl.MSS, n.impl.MSS)
	wire := float64(payload+n.impl.FrameOverhead) * m.wireScale
	txEnd := startTx + core.Duration(wire/link.Bandwidth)
	p.busyUntil = txEnd
	if n.usage != nil && payload > 0 {
		n.usage.RecordLink(link, startTx, txEnd, float64(payload))
	}
	arrive := txEnd + link.Latency
	if hop+1 < len(m.route.Links) {
		n.forward(link.ID, fifoEntry{due: arrive, seq: n.events.Reserve(1), msg: he.msg, pkt: he.pkt})
		return
	}
	m.delivered++
	if m.delivered == m.packets {
		done := m.onDone
		m.onDone, m.next, n.freeMsgs = nil, n.freeMsgs, he.msg
		done(arrive)
	}
}

// forward appends e to the FIFO of the port of link id, under the sequence
// number a Push now would take. busyUntil only grows and every frame has
// wire time, so the FIFO stays sorted.
func (n *Net) forward(id int, e fifoEntry) {
	p := &n.ports[id]
	if p.head == 0 {
		c := n.newChunk()
		p.head, p.tail, p.first, p.end = c, c, 0, 0
		n.events.PushSeq(hopEvent{msg: e.msg, pkt: e.pkt, port: int32(id + 1)}, e.due, e.seq, nil)
	} else if p.end == chunkEntries {
		c := n.newChunk()
		n.chunks[p.tail-1].next = c
		p.tail, p.end = c, 0
	}
	n.chunks[p.tail-1].entries[p.end] = e
	p.end++
}

// newChunk returns an empty chunk, from the free list if it has one. Its
// next is stale until forward links a chunk after it.
func (n *Net) newChunk() int32 {
	c := n.freeChunks
	if c == 0 {
		n.chunks = append(n.chunks, new(fifoChunk))
		return int32(len(n.chunks))
	}
	n.freeChunks = n.chunks[c-1].next
	return c
}

// freeChunk puts chunk c on the free list.
func (n *Net) freeChunk(c int32) {
	n.chunks[c-1].next, n.freeChunks = n.freeChunks, c
}
