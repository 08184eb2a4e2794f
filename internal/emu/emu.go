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
	"math/bits"

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
	// nodes holds the ports' FIFOs in chunks of chunkNodes, each filled by
	// append within its capacity; node 0 is the empty sentinel. A chunk is
	// added only when free is empty and is never copied, so a run
	// allocates its peak number of nodes in use, rounded up to one chunk.
	nodes [][]hopNode
	free  int32 // unused nodes, chained through next
	// msgs holds the messages, in flight or recycled, indexed by
	// hopEvent.msg; msgs[0] is the empty sentinel. inject may grow it, so a *message into it
	// must not be held across an inject.
	msgs     []message
	freeMsgs int32 // recycled messages, chained through next
	rng      *core.RNG
	usage    surf.UsageRecorder
}

// chunkNodes is the length of one chunk of Net.nodes: 16 KiB of hopNodes.
const chunkNodes = 512

// port is a link's output: its serialization horizon and the FIFO of
// packets sent down the link that have not yet reached the next hop. The
// FIFO's head is the port's stream entry in the heap.
type port struct {
	busyUntil  core.Time
	head, tail int32
}

// hopNode is one event of a port's FIFO. It holds no pointer, so the
// garbage collector never scans a chunk of them.
type hopNode struct {
	due  core.Time
	seq  uint64
	ev   hopEvent
	next int32
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
// route link index hop. It holds no pointer, so the heap's sifts run no
// write barrier.
type hopEvent struct {
	msg, pkt, hop int32
}

// NewNet creates an emulated network over plat with the given MPI
// implementation parameters.
func NewNet(kernel *simix.Kernel, plat *platform.Platform, impl MPIImpl) *Net {
	return &Net{
		kernel: kernel,
		plat:   plat,
		impl:   impl,
		ports:  make([]port, len(plat.Links())),
		nodes:  [][]hopNode{make([]hopNode, 1, chunkNodes)},
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
// injection.
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
		n.events.Pop()
		n.now = at
		n.next(he)
		n.processHop(he, at)
	}
	if to > n.now {
		n.now = to
	}
}

// next pushes the successor of the popped event he in its stream: the
// message's next frame, or the next packet in its port's FIFO.
func (n *Net) next(he hopEvent) {
	m := &n.msgs[he.msg]
	if he.hop == 0 {
		if i := he.pkt + 1; i < m.packets {
			n.events.PushSeq(hopEvent{msg: he.msg, pkt: i}, n.frameDue(m, i), m.seq+uint64(i), nil)
		}
		return
	}
	p := &n.ports[m.route.Links[he.hop-1].ID]
	i := p.head
	nd := n.node(i)
	p.head, nd.next, n.free = nd.next, n.free, i
	if p.head == 0 {
		p.tail = 0
		return
	}
	nd = n.node(p.head)
	n.events.PushSeq(nd.ev, nd.due, nd.seq, nil)
}

// processHop transmits the packet of he down its link. The message's
// onDone runs last, after the message went back to the free list: it may
// inject, which may move n.msgs under m.
func (n *Net) processHop(he hopEvent, at core.Time) {
	m := &n.msgs[he.msg]
	link := m.route.Links[he.hop]
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
	if int(he.hop)+1 < len(m.route.Links) {
		n.forward(p, hopEvent{msg: he.msg, pkt: he.pkt, hop: he.hop + 1}, arrive)
		return
	}
	m.delivered++
	if m.delivered == m.packets {
		done := m.onDone
		m.onDone, m.next, n.freeMsgs = nil, n.freeMsgs, he.msg
		done(arrive)
	}
}

// forward appends he, due at at, to port p's FIFO under the sequence number
// a Push now would take. busyUntil only grows and every frame has wire time,
// so the FIFO stays sorted.
func (n *Net) forward(p *port, he hopEvent, at core.Time) {
	nd := hopNode{ev: he, due: at, seq: n.events.Reserve(1)}
	i := n.free
	if i != 0 {
		slot := n.node(i)
		n.free, *slot = slot.next, nd
	} else {
		last := len(n.nodes) - 1
		if len(n.nodes[last]) == chunkNodes {
			n.nodes = append(n.nodes, make([]hopNode, 0, chunkNodes))
			last++
		}
		i = int32(last*chunkNodes + len(n.nodes[last]))
		n.nodes[last] = append(n.nodes[last], nd)
	}
	if p.tail == 0 {
		p.head = i
		n.events.PushSeq(he, at, nd.seq, nil)
	} else {
		n.node(p.tail).next = i
	}
	p.tail = i
}

// node returns FIFO node i.
func (n *Net) node(i int32) *hopNode {
	return &n.nodes[uint32(i)/chunkNodes][uint32(i)%chunkNodes]
}
