package smpi

import (
	"fmt"
	"math/bits"
)

// Algorithms selects the implementation variant of each collective. As in
// MPICH2/OpenMPI (paper Section 5.3), no variant is universally best; SMPI
// originally shipped one per operation and planned multiple — this
// reproduction provides the main alternatives so the choice can be
// studied. A field holds one of the names in its collective's variant list
// (bcastVariants and so on, below; the first entry is the default and what
// an empty field means) or algoAuto. Names are matched without regard to
// case or surrounding whitespace, and one its collective does not list
// fails Run and ParseAlgorithms before any rank starts.
type Algorithms struct {
	Bcast, Scatter, Gather, Allgather, Alltoall, Reduce, Allreduce, Barrier string
}

// variants lists one collective's implementations, the default first: both
// its vocabulary (the collectives table in select.go reads the names off it)
// and its dispatch, so a variant is spelled once. auto names the
// interconnect family (platform.TopoInfo.Kind) on which "auto" selects the
// variant instead of the default.
type variants[F any] []struct {
	name, auto string
	run        F
}

// named returns the body of the variant called name, the first one for the
// empty name; Config.fillDefaults has checked every Algorithms field against
// these lists before a rank runs.
func (vs variants[F]) named(name string) F {
	for _, v := range vs {
		if name == "" || v.name == name {
			return v.run
		}
	}
	panic("smpi: collective algorithm " + name + " was never checked")
}

// Reserved internal tags. Collectives on the same communicator execute in
// the same order on every rank (an MPI requirement), so one tag per
// operation type suffices given non-overtaking point-to-point matching.
const (
	tagBarrier = -(100 + iota)
	tagBcast
	tagScatter
	tagGather
	tagAllgather
	tagAlltoall
	tagReduce
	tagAllreduce
)

// "ring" is a store-and-forward chain, the neighbor-friendly schedule on
// ring-like topologies.
var bcastVariants = variants[func(c *Comm, r *Rank, buf []byte, root int)]{
	{name: "binomial", run: func(c *Comm, r *Rank, buf []byte, root int) { c.bcastBinomial(r, buf, root, tagBcast) }},
	{name: "ring", auto: "torus", run: func(c *Comm, r *Rank, buf []byte, root int) {
		me, p := r.rank, c.size()
		rel := (me - root + p) % p
		if rel > 0 {
			r.Recv(c, buf, (me-1+p)%p, tagBcast)
		}
		if rel < p-1 {
			r.Send(c, buf, (me+1)%p, tagBcast)
		}
	}},
	{name: "flat", run: func(c *Comm, r *Rank, buf []byte, root int) {
		if r.rank != root {
			r.Recv(c, buf, root, tagBcast)
			return
		}
		reqs := make([]*Request, 0, c.size()-1)
		for dst := 0; dst < c.size(); dst++ {
			if dst != root {
				reqs = append(reqs, r.isend(c, buf, dst, tagBcast))
			}
		}
		r.waitAllFree(reqs)
	}},
}

// Bcast broadcasts root's buf to every rank (MPI_Bcast).
func (c *Comm) Bcast(r *Rank, buf []byte, root int) {
	bcastVariants.named(c.w.cfg.Algorithms.Bcast)(c, r, buf, root)
}

// bcastBinomial is the classic binomial-tree broadcast used by MPICH2.
func (c *Comm) bcastBinomial(r *Rank, buf []byte, root, tag int) {
	me, p := r.rank, c.size()
	rel := (me - root + p) % p
	mask := 1
	for mask < p {
		if rel&mask != 0 {
			src := (rel - mask + root + p) % p
			r.Recv(c, buf, src, tag)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < p {
			dst := (rel + mask + root) % p
			r.Send(c, buf, dst, tag)
		}
		mask >>= 1
	}
}

var barrierVariants = variants[func(c *Comm, r *Rank)]{
	{name: "dissemination", run: func(c *Comm, r *Rank) {
		me, p := r.rank, c.size()
		for step := 1; step < p; step <<= 1 {
			dst := (me + step) % p
			src := (me - step + p) % p
			r.Sendrecv(c, nil, dst, tagBarrier, nil, src, tagBarrier)
		}
	}},
	// Gather-to-0 then broadcast, both binomial, with empty payloads.
	{name: "tree", run: func(c *Comm, r *Rank) {
		c.reduceBinomial(r, nil, nil, Byte, OpSum, 0, tagBarrier)
		c.bcastBinomial(r, nil, 0, tagBarrier)
	}},
}

// Barrier blocks until every rank of the communicator has entered it
// (MPI_Barrier).
func (c *Comm) Barrier(r *Rank) {
	barrierVariants.named(c.w.cfg.Algorithms.Barrier)(c, r)
}

// "binomial" is the paper's Figure 6 tree.
var scatterVariants = variants[func(c *Comm, r *Rank, sendbuf, recvbuf []byte, root int)]{
	{name: "binomial", run: (*Comm).scatterBinomial},
	{name: "flat", run: func(c *Comm, r *Rank, sendbuf, recvbuf []byte, root int) { c.Scatterv(r, sendbuf, nil, recvbuf, root) }},
}

// Scatter distributes equal chunks of root's sendbuf: rank i receives
// chunk i into recvbuf (MPI_Scatter). len(sendbuf) must equal
// Size()*len(recvbuf) on the root and is ignored elsewhere.
func (c *Comm) Scatter(r *Rank, sendbuf, recvbuf []byte, root int) {
	if p, bs := c.size(), len(recvbuf); r.rank == root && len(sendbuf) != p*bs {
		panic(fmt.Sprintf("smpi: Scatter sendbuf %d bytes, want %d*%d", len(sendbuf), p, bs))
	}
	scatterVariants.named(c.w.cfg.Algorithms.Scatter)(c, r, sendbuf, recvbuf, root)
}

// scatterBinomial is MPICH2's binomial-tree scatter — the algorithm of the
// paper's Figure 6, where process 0 forwards 8 chunks to process 8, 4 to
// process 4, and so on. Data volumes halve at each tree level.
func (c *Comm) scatterBinomial(r *Rank, sendbuf, recvbuf []byte, root int) {
	me, p := r.rank, c.size()
	bs := len(recvbuf)
	rel := (me - root + p) % p

	var tmp []byte // holds chunks [rel, rel+cnt) in relative order
	var mask int
	if rel == 0 {
		if root == 0 {
			tmp = sendbuf // relative order == world order: no rotation copy
		} else {
			// Rotate so the chunk of relative rank j sits at offset j.
			tmp = c.w.scratch(sendbuf, p*bs)
			for j := 0; j < p; j++ {
				world := (j + root) % p
				c.w.move(tmp[j*bs:(j+1)*bs], sendbuf[world*bs:(world+1)*bs])
			}
		}
		mask = 1
		for mask < p {
			mask <<= 1
		}
	} else {
		mask = rel & -rel // the lowest set bit names the parent and bounds the subtree
		tmp = c.w.scratch(recvbuf, min(mask, p-rel)*bs)
		r.Recv(c, tmp, (me-mask+p)%p, tagScatter)
	}
	// Subtree chunks are pushed with non-blocking sends so the transfers
	// to all children proceed concurrently — this is what makes network
	// contention matter for the scatter of the paper's Figure 7.
	var reqs []*Request
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < p {
			dst := (me + mask) % p
			cnt := min(mask, p-(rel+mask))
			reqs = append(reqs, r.isend(c, tmp[mask*bs:(mask+cnt)*bs], dst, tagScatter))
		}
	}
	r.waitAllFree(reqs)
	c.w.move(recvbuf, tmp[:bs])
}

var gatherVariants = variants[func(c *Comm, r *Rank, sendbuf, recvbuf []byte, root int)]{
	{name: "binomial", run: (*Comm).gatherBinomial},
	{name: "flat", run: func(c *Comm, r *Rank, sendbuf, recvbuf []byte, root int) { c.Gatherv(r, sendbuf, recvbuf, nil, root) }},
}

// Gather collects equal chunks from every rank into root's recvbuf, rank
// i's contribution landing at chunk i (MPI_Gather).
func (c *Comm) Gather(r *Rank, sendbuf, recvbuf []byte, root int) {
	if p, bs := c.size(), len(sendbuf); r.rank == root && len(recvbuf) != p*bs {
		panic(fmt.Sprintf("smpi: Gather recvbuf %d bytes, want %d*%d", len(recvbuf), p, bs))
	}
	gatherVariants.named(c.w.cfg.Algorithms.Gather)(c, r, sendbuf, recvbuf, root)
}

// gatherBinomial mirrors scatterBinomial: subtree data flows towards the
// root, doubling in volume at each level.
func (c *Comm) gatherBinomial(r *Rank, sendbuf, recvbuf []byte, root int) {
	me, p := r.rank, c.size()
	bs := len(sendbuf)
	rel := (me - root + p) % p

	subtree := min(subtreeSize(rel, p), p-rel)
	tmp := c.w.scratch(sendbuf, subtree*bs)
	c.w.move(tmp[:bs], sendbuf)

	mask := 1
	for mask < p {
		if rel&mask != 0 {
			dst := (me - mask + p) % p
			r.Send(c, tmp, dst, tagGather)
			break
		}
		srcRel := rel + mask
		if srcRel < p {
			cnt := min(subtreeSize(srcRel, p), p-srcRel)
			r.Recv(c, tmp[mask*bs:(mask+cnt)*bs], (me+mask)%p, tagGather)
		}
		mask <<= 1
	}
	if rel == 0 {
		for j := 0; j < p; j++ {
			world := (j + root) % p
			c.w.move(recvbuf[world*bs:(world+1)*bs], tmp[j*bs:(j+1)*bs])
		}
	}
}

// subtreeSize returns the number of relative ranks in the binomial subtree
// rooted at rel (unclamped; callers clamp with p-rel).
func subtreeSize(rel, p int) int {
	if rel == 0 {
		return p
	}
	// The subtree of a node equals the value of its lowest set bit.
	return rel & (-rel)
}

var allgatherVariants = variants[func(c *Comm, r *Rank, sendbuf, recvbuf []byte)]{
	{name: "ring", run: func(c *Comm, r *Rank, sendbuf, recvbuf []byte) {
		me, p := r.rank, c.size()
		bs := len(sendbuf)
		c.w.move(recvbuf[me*bs:(me+1)*bs], sendbuf)
		right := (me + 1) % p
		left := (me - 1 + p) % p
		for step := 0; step < p-1; step++ {
			sendIdx := (me - step + p) % p
			recvIdx := (me - step - 1 + p) % p
			r.Sendrecv(c,
				recvbuf[sendIdx*bs:(sendIdx+1)*bs], right, tagAllgather,
				recvbuf[recvIdx*bs:(recvIdx+1)*bs], left, tagAllgather)
		}
	}},
	{name: "gather-bcast", run: func(c *Comm, r *Rank, sendbuf, recvbuf []byte) {
		c.Gather(r, sendbuf, recvbuf, 0)
		c.Bcast(r, recvbuf, 0)
	}},
}

// Allgather concatenates every rank's sendbuf into everyone's recvbuf
// (MPI_Allgather). len(recvbuf) must be Size()*len(sendbuf).
func (c *Comm) Allgather(r *Rank, sendbuf, recvbuf []byte) {
	if p, bs := c.size(), len(sendbuf); len(recvbuf) != p*bs {
		panic(fmt.Sprintf("smpi: Allgather recvbuf %d bytes, want %d*%d", len(recvbuf), p, bs))
	}
	allgatherVariants.named(c.w.cfg.Algorithms.Allgather)(c, r, sendbuf, recvbuf)
}

// "bruck" is the log-step algorithm, better for small messages.
var alltoallVariants = variants[func(c *Comm, r *Rank, sendbuf, recvbuf []byte)]{
	// The paper's Figure 10: P steps; at step k each process exchanges
	// with one distinct partner (including itself at step 0).
	{name: "pairwise", run: func(c *Comm, r *Rank, sendbuf, recvbuf []byte) {
		me, p := r.rank, c.size()
		bs := len(sendbuf) / p
		c.w.move(recvbuf[me*bs:(me+1)*bs], sendbuf[me*bs:(me+1)*bs])
		for step := 1; step < p; step++ {
			dst := (me + step) % p
			src := (me - step + p) % p
			r.Sendrecv(c,
				sendbuf[dst*bs:(dst+1)*bs], dst, tagAlltoall,
				recvbuf[src*bs:(src+1)*bs], src, tagAlltoall)
		}
	}},
	{name: "bruck", run: (*Comm).alltoallBruck},
	{name: "flat", run: func(c *Comm, r *Rank, sendbuf, recvbuf []byte) { c.Alltoallv(r, sendbuf, nil, recvbuf, nil) }},
}

// Alltoall exchanges equal blocks between all pairs: the i-th block of
// sendbuf goes to rank i, which stores it as its j-th received block
// (MPI_Alltoall). Both buffers hold Size() blocks.
func (c *Comm) Alltoall(r *Rank, sendbuf, recvbuf []byte) {
	if p := c.size(); len(sendbuf) != len(recvbuf) || len(sendbuf)%p != 0 {
		panic(fmt.Sprintf("smpi: Alltoall buffers %d/%d bytes for %d ranks", len(sendbuf), len(recvbuf), p))
	}
	alltoallVariants.named(c.w.cfg.Algorithms.Alltoall)(c, r, sendbuf, recvbuf)
}

// alltoallBruck is the log-step Bruck (1997) algorithm used by MPICH2 and
// OpenMPI for small messages: ceil(log2 P) rounds, each moving the blocks
// whose rotated index has bit k set, followed by a local inversion.
func (c *Comm) alltoallBruck(r *Rank, sendbuf, recvbuf []byte) {
	me, p := r.rank, c.size()
	bs := len(sendbuf) / p
	// Phase 1: local rotation — block j of tmp is the block for rank
	// (me+j) mod p.
	tmp := c.w.scratch(sendbuf, p*bs)
	for j := 0; j < p; j++ {
		src := (me + j) % p
		c.w.move(tmp[j*bs:(j+1)*bs], sendbuf[src*bs:(src+1)*bs])
	}
	// Phase 2: log-step exchanges.
	scratch := c.w.scratch(sendbuf, p*bs)
	for k := 1; k < p; k <<= 1 {
		dst := (me + k) % p
		src := (me - k + p) % p
		// Pack the blocks whose index has bit k set.
		n := 0
		for j := 0; j < p; j++ {
			if j&k != 0 {
				c.w.move(scratch[n*bs:(n+1)*bs], tmp[j*bs:(j+1)*bs])
				n++
			}
		}
		rq := r.irecv(c, scratch[n*bs:2*n*bs], src, tagAlltoall)
		r.Send(c, scratch[:n*bs], dst, tagAlltoall)
		r.waitFree(rq)
		// Unpack received blocks into the same positions.
		m := 0
		for j := 0; j < p; j++ {
			if j&k != 0 {
				c.w.move(tmp[j*bs:(j+1)*bs], scratch[(n+m)*bs:(n+m+1)*bs])
				m++
			}
		}
	}
	// Phase 3: final inversion — tmp block j holds the block from rank
	// (me-j) mod p.
	for j := 0; j < p; j++ {
		src := (me - j + p) % p
		c.w.move(recvbuf[src*bs:(src+1)*bs], tmp[j*bs:(j+1)*bs])
	}
}

var reduceVariants = variants[func(c *Comm, r *Rank, sendbuf, recvbuf []byte, dt Datatype, op Op, root int)]{
	{name: "binomial", run: func(c *Comm, r *Rank, sendbuf, recvbuf []byte, dt Datatype, op Op, root int) {
		c.reduceBinomial(r, sendbuf, recvbuf, dt, op, root, tagReduce)
	}},
	{name: "flat", run: func(c *Comm, r *Rank, sendbuf, recvbuf []byte, dt Datatype, op Op, root int) {
		if r.rank != root {
			r.Send(c, sendbuf, root, tagReduce)
			return
		}
		acc := clone(sendbuf)
		scratch := make([]byte, len(sendbuf))
		for src := 0; src < c.size(); src++ {
			if src != root {
				r.Recv(c, scratch, src, tagReduce)
				op.Apply(acc, scratch, dt)
			}
		}
		copy(recvbuf, acc)
	}},
}

// Reduce combines every rank's sendbuf with op, leaving the result in
// root's recvbuf (MPI_Reduce).
func (c *Comm) Reduce(r *Rank, sendbuf, recvbuf []byte, dt Datatype, op Op, root int) {
	reduceVariants.named(c.w.cfg.Algorithms.Reduce)(c, r, sendbuf, recvbuf, dt, op, root)
}

// reduceBinomial combines up a binomial tree (commutative operators).
func (c *Comm) reduceBinomial(r *Rank, sendbuf, recvbuf []byte, dt Datatype, op Op, root, tag int) {
	me, p := r.rank, c.size()
	rel := (me - root + p) % p
	acc := clone(sendbuf)
	scratch := make([]byte, len(sendbuf))
	mask := 1
	for mask < p {
		if rel&mask != 0 {
			dst := (me - mask + p) % p
			r.Send(c, acc, dst, tag)
			return
		}
		if rel+mask < p {
			r.Recv(c, scratch, (me+mask)%p, tag)
			if len(acc) > 0 {
				op.Apply(acc, scratch, dt)
			}
		}
		mask <<= 1
	}
	copy(recvbuf, acc)
}

// "recursive-doubling" needs a power-of-two size and "ring" at least one
// element per rank; where they do not apply they run "reduce-bcast".
var allreduceVariants = variants[func(c *Comm, r *Rank, sendbuf, recvbuf []byte, dt Datatype, op Op)]{
	{name: "recursive-doubling", run: func(c *Comm, r *Rank, sendbuf, recvbuf []byte, dt Datatype, op Op) {
		me, p := r.rank, c.size()
		if bits.OnesCount(uint(p)) != 1 {
			c.allreduceReduceBcast(r, sendbuf, recvbuf, dt, op)
			return
		}
		acc := clone(sendbuf)
		scratch := make([]byte, len(sendbuf))
		for mask := 1; mask < p; mask <<= 1 {
			peer := me ^ mask
			r.Sendrecv(c, acc, peer, tagAllreduce, scratch, peer, tagAllreduce)
			op.Apply(acc, scratch, dt)
		}
		copy(recvbuf, acc)
	}},
	{name: "ring", auto: "torus", run: (*Comm).allreduceRing},
	{name: "reduce-bcast", run: (*Comm).allreduceReduceBcast},
}

// Allreduce combines every rank's sendbuf with op and leaves the result in
// every rank's recvbuf (MPI_Allreduce).
func (c *Comm) Allreduce(r *Rank, sendbuf, recvbuf []byte, dt Datatype, op Op) {
	allreduceVariants.named(c.w.cfg.Algorithms.Allreduce)(c, r, sendbuf, recvbuf, dt, op)
}

func (c *Comm) allreduceReduceBcast(r *Rank, sendbuf, recvbuf []byte, dt Datatype, op Op) {
	c.reduceBinomial(r, sendbuf, recvbuf, dt, op, 0, tagAllreduce)
	c.Bcast(r, recvbuf, 0)
}

// allreduceRing is the bandwidth-optimal ring allreduce: the buffer is cut
// into P chunks; P-1 reduce-scatter steps leave each rank owning one fully
// reduced chunk, and P-1 allgather steps circulate the reduced chunks. All
// traffic flows between ring neighbors, which maps exactly onto torus and
// ring interconnects (no cross-machine hops, unlike recursive doubling).
func (c *Comm) allreduceRing(r *Rank, sendbuf, recvbuf []byte, dt Datatype, op Op) {
	me, p := r.rank, c.size()
	es := dt.size
	if p == 1 || es == 0 || len(sendbuf)/es < p {
		c.allreduceReduceBcast(r, sendbuf, recvbuf, dt, op)
		return
	}
	elems := len(sendbuf) / es
	// Chunk boundaries in elements: the first elems%p chunks get one extra.
	off := make([]int, p+1)
	base, rem := elems/p, elems%p
	for i := 0; i < p; i++ {
		off[i+1] = off[i] + base
		if i < rem {
			off[i+1]++
		}
	}
	chunk := func(buf []byte, i int) []byte { return buf[off[i]*es : off[i+1]*es] }

	acc := clone(sendbuf)
	scratch := make([]byte, (base+1)*es)
	right, left := (me+1)%p, (me-1+p)%p
	// Reduce-scatter: at step s, pass chunk (me-s) rightwards and fold the
	// incoming chunk (me-s-1) into the accumulator. After P-1 steps rank me
	// owns the fully reduced chunk (me+1) mod P.
	for s := 0; s < p-1; s++ {
		sendIdx := (me - s + p) % p
		recvIdx := (me - s - 1 + p) % p
		in := scratch[:len(chunk(acc, recvIdx))]
		r.Sendrecv(c, chunk(acc, sendIdx), right, tagAllreduce, in, left, tagAllreduce)
		op.Apply(chunk(acc, recvIdx), in, dt)
	}
	// Allgather: circulate the reduced chunks around the ring.
	for s := 0; s < p-1; s++ {
		sendIdx := (me + 1 - s + p) % p
		recvIdx := (me - s + p) % p
		r.Sendrecv(c, chunk(acc, sendIdx), right, tagAllreduce,
			chunk(acc, recvIdx), left, tagAllreduce)
	}
	copy(recvbuf, acc)
}

// --- v-variants (per-rank counts) ---

// blockLen returns counts[i], or equal when counts is nil: the whole
// per-rank buffer, which is how the "flat" variants of Scatter, Gather and
// Alltoall run.
func blockLen(counts []int, equal, i int) int {
	if counts == nil {
		return equal
	}
	return counts[i]
}

// Scatterv distributes counts[i] bytes to rank i from root's sendbuf,
// packed contiguously (MPI_Scatterv with implicit displacements); nil counts
// mean len(recvbuf) bytes each.
func (c *Comm) Scatterv(r *Rank, sendbuf []byte, counts []int, recvbuf []byte, root int) {
	me, p := r.rank, c.size()
	if counts != nil && len(counts) != p {
		panic(fmt.Sprintf("smpi: Scatterv counts has %d entries for %d ranks", len(counts), p))
	}
	if me != root {
		r.Recv(c, recvbuf[:blockLen(counts, len(recvbuf), me)], root, tagScatter)
		return
	}
	reqs := make([]*Request, 0, p-1)
	off := 0
	for dst := 0; dst < p; dst++ {
		chunk := sendbuf[off : off+blockLen(counts, len(recvbuf), dst)]
		off += len(chunk)
		if dst == root {
			c.w.move(recvbuf, chunk)
			continue
		}
		reqs = append(reqs, r.isend(c, chunk, dst, tagScatter))
	}
	r.waitAllFree(reqs)
}

// Gatherv collects counts[i] bytes from rank i into root's recvbuf, packed
// contiguously (MPI_Gatherv with implicit displacements); nil counts mean
// len(sendbuf) bytes each.
func (c *Comm) Gatherv(r *Rank, sendbuf []byte, recvbuf []byte, counts []int, root int) {
	me, p := r.rank, c.size()
	if counts != nil && len(counts) != p {
		panic(fmt.Sprintf("smpi: Gatherv counts has %d entries for %d ranks", len(counts), p))
	}
	if me != root {
		r.Send(c, sendbuf[:blockLen(counts, len(sendbuf), me)], root, tagGather)
		return
	}
	reqs := make([]*Request, 0, p-1)
	off := 0
	for src := 0; src < p; src++ {
		chunk := recvbuf[off : off+blockLen(counts, len(sendbuf), src)]
		off += len(chunk)
		if src == root {
			c.w.move(chunk, sendbuf)
			continue
		}
		reqs = append(reqs, r.irecv(c, chunk, src, tagGather))
	}
	r.waitAllFree(reqs)
}

// Allgatherv concatenates variable-size contributions on every rank
// (MPI_Allgatherv): gatherv to rank 0 then broadcast.
func (c *Comm) Allgatherv(r *Rank, sendbuf []byte, recvbuf []byte, counts []int) {
	c.Gatherv(r, sendbuf, recvbuf, counts, 0)
	c.Bcast(r, recvbuf, 0)
}

// Alltoallv exchanges variable-size blocks (MPI_Alltoallv with implicit
// displacements): sendcounts[i] bytes go to rank i; recvcounts[j] bytes
// arrive from rank j, both packed contiguously; nil counts mean equal
// blocks. Every receive is posted, then every send, then all are awaited.
func (c *Comm) Alltoallv(r *Rank, sendbuf []byte, sendcounts []int, recvbuf []byte, recvcounts []int) {
	me, p := r.rank, c.size()
	if sendcounts != nil && len(sendcounts) != p || recvcounts != nil && len(recvcounts) != p {
		panic(fmt.Sprintf("smpi: Alltoallv counts %d/%d entries for %d ranks", len(sendcounts), len(recvcounts), p))
	}
	reqs := make([]*Request, 0, 2*(p-1))
	var own []byte // where this rank's block of sendbuf lands
	off := 0
	for peer := 0; peer < p; peer++ {
		chunk := recvbuf[off : off+blockLen(recvcounts, len(recvbuf)/p, peer)]
		off += len(chunk)
		if peer == me {
			own = chunk
			continue
		}
		reqs = append(reqs, r.irecv(c, chunk, peer, tagAlltoall))
	}
	off = 0
	for peer := 0; peer < p; peer++ {
		chunk := sendbuf[off : off+blockLen(sendcounts, len(sendbuf)/p, peer)]
		off += len(chunk)
		if peer == me {
			c.w.move(own, chunk)
			continue
		}
		reqs = append(reqs, r.isend(c, chunk, peer, tagAlltoall))
	}
	r.waitAllFree(reqs)
}
