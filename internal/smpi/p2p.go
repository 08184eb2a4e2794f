package smpi

import (
	"fmt"

	"smpigo/internal/platform"
	"smpigo/internal/simix"
)

// Wildcards for Recv/Irecv source and tag matching.
const (
	// AnySource matches a message from any rank (MPI_ANY_SOURCE).
	AnySource = -1
	// AnyTag matches a message with any tag (MPI_ANY_TAG).
	AnyTag = -2
)

// Status describes a completed receive (MPI_Status).
type Status struct {
	// Source is the sender's rank.
	Source int
	// Tag is the message tag.
	Tag int
	// Count is the message payload size in bytes.
	Count int
}

// Request is a communication handle (MPI_Request), returned by the
// non-blocking operations and completed through Wait/Test.
type Request struct {
	done simix.Future
	// Status is filled when the request completes (receives only).
	Status Status

	// A receive's arguments, by which it is matched and delivered while
	// posted in its mailbox.
	buf  []byte
	peer int
	tag  int

	// Tracing state: the rank-local request index assigned by the
	// recorder (-1 when tracing is off) and the wildcard-source resolver.
	traceIdx     int
	traceResolve func(int)
}

// Done reports whether the request has completed (like a successful
// MPI_Test without status).
func (q *Request) Done() bool { return q != nil && q.done.Done() }

// envelope is a message in flight or queued as unexpected. The object
// outlives the message: arrive puts it on the World's free list.
type envelope struct {
	src, tag int
	eager    bool
	data     []byte // payload (eager: snapshot at send, or the folded buffer itself; rendezvous: at match)
	srcBuf   []byte // rendezvous: sender buffer, snapshotted at match time
	srcHost  *platform.Host
	dstHost  *platform.Host
	wire     simix.Future
	sendReq  *Request // rendezvous only: completes at delivery
	recvReq  *Request // the matched receive, from deliver on
	// onWire is the wire future's callback, w.arrive bound to this envelope
	// once for all its lives.
	onWire func()
}

// mailbox holds one receiving rank's unmatched traffic; World.mailboxes is
// indexed by rank.
type mailbox struct {
	sends []*envelope // unexpected messages waiting for a matching receive
	recvs []*Request  // posted receives waiting for a matching send
}

func matches(envSrc, envTag, wantSrc, wantTag int) bool {
	return (wantSrc == AnySource || envSrc == wantSrc) &&
		(wantTag == AnyTag || envTag == wantTag)
}

func clone(buf []byte) []byte {
	out := make([]byte, len(buf))
	copy(out, buf)
	return out
}

// move is the one place payload bytes travel: it copies src into dst unless
// either side is folded memory (Rank.SharedMalloc), whose bytes are
// undefined by contract — SimGrid's smpi_comm_copy_buffer_callback skips
// its memcpy on smpi_is_shared buffers the same way. Lengths, and so every
// timing, count and status, are untouched.
func (w *World) move(dst, src []byte) {
	if w.reg.Shared(dst) || w.reg.Shared(src) {
		return
	}
	copy(dst, src)
}

// scratch returns n bytes for a collective's temporary that stages the
// caller's buffer like: private zeroed memory when like is private, aliased
// folded memory (allocating nothing once a block is large enough) when like
// is folded.
func (w *World) scratch(like []byte, n int) []byte {
	if w.reg.Shared(like) {
		return w.reg.SharedScratch(n)
	}
	return make([]byte, n)
}

// newEnvelope returns a blank envelope, a delivered one when there is one.
func (w *World) newEnvelope() *envelope {
	if n := len(w.freeEnvs); n > 0 {
		env := w.freeEnvs[n-1]
		w.freeEnvs = w.freeEnvs[:n-1]
		return env
	}
	env := new(envelope)
	env.onWire = func() { w.arrive(env) }
	return env
}

// deliver wires an envelope to its matched receive: when the transfer
// completes, the payload lands in the receive buffer and both requests
// (where applicable) complete.
func (w *World) deliver(env *envelope, q *Request) {
	env.recvReq = q
	w.kernel.OnFulfill(&env.wire, env.onWire)
}

// arrive completes env's delivery and frees the envelope. It runs as the
// last act of the wire future's Fulfill (or from deliver itself, for an
// unexpected message already off the wire), so nothing refers to env
// afterwards; freeing it last keeps it from a send started by anything
// arrive wakes.
func (w *World) arrive(env *envelope) {
	q := env.recvReq
	if len(env.data) > len(q.buf) {
		panic(fmt.Sprintf("smpi: message truncation: %d-byte message into %d-byte buffer (src %d, tag %d)",
			len(env.data), len(q.buf), env.src, env.tag))
	}
	w.move(q.buf, env.data)
	q.Status = Status{Source: env.src, Tag: env.tag, Count: len(env.data)}
	if q.traceResolve != nil {
		// Patch the recorded receive with the matched source so that
		// wildcard receives replay deterministically.
		q.traceResolve(env.src)
	}
	w.kernel.Fulfill(&q.done)
	if !env.eager {
		w.kernel.Fulfill(&env.sendReq.done)
	}
	*env = envelope{onWire: env.onWire}
	w.freeEnvs = append(w.freeEnvs, env)
}

// startRendezvous begins the payload transfer of a rendezvous send that
// just matched a posted receive. No snapshot is taken: MPI requires the
// sender's buffer to stay untouched until the send completes, and the send
// completes exactly when this transfer delivers, so referencing the buffer
// directly is safe and keeps large transfers zero-copy (one copy into the
// receive buffer at delivery).
func (w *World) startRendezvous(env *envelope, q *Request) {
	env.data = env.srcBuf
	env.srcBuf = nil
	w.transfer(env)
	w.deliver(env, q)
}

// isendInto performs the send protocol, completing req accordingly.
func (w *World) isendInto(r *Rank, buf []byte, dst, tag int, req *Request) {
	if dst < 0 || dst >= len(w.ranks) {
		panic(fmt.Sprintf("smpi: send to invalid rank %d in communicator of size %d", dst, len(w.ranks)))
	}
	env := w.newEnvelope()
	env.src, env.tag = r.rank, tag
	env.srcHost, env.dstHost = r.host, w.ranks[dst].host
	mb := &w.mailboxes[dst]

	if int64(len(buf)) < eagerThreshold {
		// Eager: snapshot the payload, push it to the wire immediately,
		// and complete the send locally (buffered semantics). A folded
		// buffer has no defined bytes to snapshot and is referenced.
		env.eager = true
		if w.reg.Shared(buf) {
			env.data = buf
		} else {
			env.data = clone(buf)
		}
		w.transfer(env)
		w.kernel.Fulfill(&req.done)
		if q := mb.takeRecv(env); q != nil {
			w.deliver(env, q)
		} else {
			mb.sends = append(mb.sends, env)
		}
		return
	}

	// Rendezvous: nothing moves until a matching receive is posted; the
	// send completes only when the payload has been delivered
	// (synchronous-mode semantics above the eager threshold).
	env.srcBuf = buf
	env.sendReq = req
	if q := mb.takeRecv(env); q != nil {
		w.startRendezvous(env, q)
	} else {
		mb.sends = append(mb.sends, env)
	}
}

// irecvInto performs the receive protocol, completing req when a matching
// message has fully arrived.
func (w *World) irecvInto(r *Rank, buf []byte, src, tag int, req *Request) {
	if src != AnySource && (src < 0 || src >= len(w.ranks)) {
		panic(fmt.Sprintf("smpi: receive from invalid rank %d in communicator of size %d", src, len(w.ranks)))
	}
	mb := &w.mailboxes[r.rank]
	req.buf, req.peer, req.tag = buf, src, tag
	if env := mb.takeSend(src, tag); env != nil {
		if env.eager {
			w.deliver(env, req)
		} else {
			w.startRendezvous(env, req)
		}
		return
	}
	mb.recvs = append(mb.recvs, req)
}

// takeRecv removes and returns the earliest posted receive matching env.
func (mb *mailbox) takeRecv(env *envelope) *Request {
	for i, q := range mb.recvs {
		if matches(env.src, env.tag, q.peer, q.tag) {
			mb.recvs = append(mb.recvs[:i], mb.recvs[i+1:]...)
			return q
		}
	}
	return nil
}

// takeSend removes and returns the earliest queued send matching (src,tag).
func (mb *mailbox) takeSend(src, tag int) *envelope {
	for i, env := range mb.sends {
		if matches(env.src, env.tag, src, tag) {
			mb.sends = append(mb.sends[:i], mb.sends[i+1:]...)
			return env
		}
	}
	return nil
}

// --- public point-to-point API ---

// Isend starts a non-blocking send of buf to rank dst with the given tag
// (MPI_Isend). The buffer must not be modified until the request completes.
func (r *Rank) Isend(c *Comm, buf []byte, dst, tag int) *Request {
	return r.startSend(new(Request), buf, dst, tag)
}

// Irecv starts a non-blocking receive into buf from rank src (or AnySource)
// with the given tag (or AnyTag) — MPI_Irecv.
func (r *Rank) Irecv(c *Comm, buf []byte, src, tag int) *Request {
	return r.startRecv(new(Request), buf, src, tag)
}

// startSend starts a send on the blank request q.
func (r *Rank) startSend(q *Request, buf []byte, dst, tag int) *Request {
	q.traceIdx = -1
	if tr := r.w.cfg.Tracer; tr != nil {
		q.traceIdx = tr.RecordIsend(r.rank, dst, tag, int64(len(buf)))
	}
	r.w.isendInto(r, buf, dst, tag, q)
	return q
}

// startRecv starts a receive on the blank request q.
func (r *Rank) startRecv(q *Request, buf []byte, src, tag int) *Request {
	q.traceIdx = -1
	if tr := r.w.cfg.Tracer; tr != nil {
		q.traceIdx, q.traceResolve = tr.RecordIrecv(r.rank, src, tag, int64(len(buf)))
	}
	r.w.irecvInto(r, buf, src, tag, q)
	return q
}

// A Request handed to the application stays readable after it completes
// (Done, Status, WaitSome) for as long as the application keeps it, so
// those are left to the GC. The requests of the blocking calls and of the
// built-in collectives never leave this package: they are made by isend and
// irecv on a recycled object, and waitFree gives it back.

// newRequest returns a blank request that must not reach the application.
func (w *World) newRequest() *Request {
	if n := len(w.freeReqs); n > 0 {
		q := w.freeReqs[n-1]
		w.freeReqs = w.freeReqs[:n-1]
		return q
	}
	return new(Request)
}

// isend is Isend for this package's own use; the request goes to waitFree.
func (r *Rank) isend(c *Comm, buf []byte, dst, tag int) *Request {
	return r.startSend(r.w.newRequest(), buf, dst, tag)
}

// irecv is Irecv for this package's own use; the request goes to waitFree.
func (r *Rank) irecv(c *Comm, buf []byte, src, tag int) *Request {
	return r.startRecv(r.w.newRequest(), buf, src, tag)
}

// waitFree is Wait for a request made by isend or irecv, which it frees.
func (r *Rank) waitFree(q *Request) Status {
	st := r.Wait(q)
	*q = Request{}
	r.w.freeReqs = append(r.w.freeReqs, q)
	return st
}

// waitAllFree is WaitAll for requests made by isend or irecv.
func (r *Rank) waitAllFree(qs []*Request) {
	for _, q := range qs {
		r.waitFree(q)
	}
}

// Send performs a blocking send (MPI_Send): buffered below the eager
// threshold, synchronous above it.
func (r *Rank) Send(c *Comm, buf []byte, dst, tag int) {
	r.waitFree(r.isend(c, buf, dst, tag))
}

// Recv performs a blocking receive (MPI_Recv) and returns its status.
func (r *Rank) Recv(c *Comm, buf []byte, src, tag int) Status {
	return r.waitFree(r.irecv(c, buf, src, tag))
}

// Sendrecv performs the combined send+receive (MPI_Sendrecv).
func (r *Rank) Sendrecv(c *Comm, sendbuf []byte, dst, sendtag int,
	recvbuf []byte, src, recvtag int) Status {
	rq := r.irecv(c, recvbuf, src, recvtag)
	sq := r.isend(c, sendbuf, dst, sendtag)
	r.waitFree(sq)
	return r.waitFree(rq)
}

// Wait blocks until the request completes and returns its status
// (MPI_Wait).
func (r *Rank) Wait(q *Request) Status {
	if q == nil {
		return Status{}
	}
	if tr := r.w.cfg.Tracer; tr != nil && q.traceIdx >= 0 {
		tr.RecordWait(r.rank, q.traceIdx)
	}
	r.proc.Wait(&q.done)
	return q.Status
}

// WaitAll blocks until every non-nil request completes (MPI_Waitall).
func (r *Rank) WaitAll(qs []*Request) {
	for _, q := range qs {
		r.Wait(q)
	}
}

// WaitAny blocks until at least one request completes and returns its index
// and status (MPI_Waitany). It returns -1 if every request is nil.
func (r *Rank) WaitAny(qs []*Request) (int, Status) {
	futures := r.anyScratch[:0]
	all := true
	for _, q := range qs {
		var f *simix.Future
		if q != nil {
			f = &q.done
			all = false
		}
		futures = append(futures, f)
	}
	r.anyScratch = futures
	if all {
		return -1, Status{}
	}
	i := r.proc.WaitAny(futures)
	if tr := r.w.cfg.Tracer; tr != nil && qs[i].traceIdx >= 0 {
		tr.RecordWait(r.rank, qs[i].traceIdx)
	}
	return i, qs[i].Status
}

// WaitSome blocks until at least one request completes and returns the
// indices of all completed requests (MPI_Waitsome). It returns nil if every
// request is nil.
func (r *Rank) WaitSome(qs []*Request) []int {
	if i, _ := r.WaitAny(qs); i < 0 {
		return nil
	}
	var done []int
	for i, q := range qs {
		if q != nil && q.Done() {
			done = append(done, i)
		}
	}
	return done
}

// Test reports whether the request has completed, without blocking
// (MPI_Test).
func (r *Rank) Test(q *Request) (bool, Status) {
	if q == nil || !q.Done() {
		return false, Status{}
	}
	return true, q.Status
}
