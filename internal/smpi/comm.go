package smpi

import (
	"fmt"
	"slices"
	"sort"
)

// Undefined is the color value for which Split returns no communicator
// (MPI_UNDEFINED).
const Undefined = -3

// Comm is a communicator: an ordered group of world ranks with an isolated
// message-matching namespace. The world communicator is created by Run;
// others derive from it through Dup and Split.
type Comm struct {
	w     *World
	id    int
	group []int // group[commRank] = worldRank
	ranks []int // the inverse: ranks[worldRank] = commRank, -1 for non-members
}

// newComm registers a communicator over group under the next id.
func (w *World) newComm(group []int) *Comm {
	ranks := make([]int, w.cfg.Procs)
	for i := range ranks {
		ranks[i] = -1
	}
	for i, wr := range group {
		ranks[wr] = i
	}
	c := &Comm{w: w, id: w.commSeq, group: group, ranks: ranks}
	w.commSeq++
	return c
}

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// RankOf returns r's rank within the communicator, or -1 if r is not a
// member.
func (c *Comm) RankOf(r *Rank) int { return c.ranks[r.rank] }

func (c *Comm) mustRank(r *Rank) int {
	if i := c.RankOf(r); i >= 0 {
		return i
	}
	panic(fmt.Sprintf("smpi: rank %d is not a member of communicator %d", r.rank, c.id))
}

// WorldRank translates a communicator rank to a world rank
// (MPI_Group_translate_ranks against the world group).
func (c *Comm) WorldRank(commRank int) int {
	if commRank < 0 || commRank >= len(c.group) {
		panic(fmt.Sprintf("smpi: rank %d out of range for communicator of size %d", commRank, len(c.group)))
	}
	return c.group[commRank]
}

// Group returns a copy of the communicator's group as world ranks.
func (c *Comm) Group() []int { return slices.Clone(c.group) }

// getOrCreateComm returns the communicator registered under key, creating
// it with the given group on first use. Collective communicator creation
// relies on every member deriving the identical key and group.
func (w *World) getOrCreateComm(key string, group []int) *Comm {
	if c, ok := w.comms[key]; ok {
		return c
	}
	c := w.newComm(group)
	w.comms[key] = c
	return c
}

// Dup returns a duplicate communicator with the same group but a fresh
// matching namespace (MPI_Comm_dup). Like its MPI counterpart it is
// collective: every member must call it, in the same order relative to
// other Dup/Split calls on the same communicator.
func (c *Comm) Dup(r *Rank) *Comm {
	seq := r.nextDupSeq(c.id)
	key := fmt.Sprintf("dup:%d:%d", c.id, seq)
	return c.w.getOrCreateComm(key, c.Group())
}

// nextDupSeq returns how many Dup or Split calls r has made under key, and
// counts this one.
func (r *Rank) nextDupSeq(key int) int {
	if r.dupSeq == nil {
		r.dupSeq = make(map[int]int)
	}
	seq := r.dupSeq[key]
	r.dupSeq[key] = seq + 1
	return seq
}

// Split partitions the communicator by color and orders each partition by
// key then by current rank (MPI_Comm_split — implemented here although the
// original SMPI paper lists it as unsupported). Ranks passing Undefined as
// color receive nil.
func (c *Comm) Split(r *Rank, color, key int) *Comm {
	c.mustRank(r)
	// Gather everyone's (color, key) — Split is a synchronizing collective.
	mine := Int32sToBytes([]int32{int32(color), int32(key)})
	all := make([]byte, 8*c.Size())
	c.Allgather(r, mine, all)

	seq := r.nextDupSeq(-1 - c.id) // separate sequence space from Dup

	if color == Undefined {
		return nil
	}
	type member struct{ color, key, rank int }
	var mates []member
	vals := BytesToInt32s(all)
	for i := 0; i < c.Size(); i++ {
		m := member{color: int(vals[2*i]), key: int(vals[2*i+1]), rank: i}
		if m.color == color {
			mates = append(mates, m)
		}
	}
	sort.Slice(mates, func(i, j int) bool {
		if mates[i].key != mates[j].key {
			return mates[i].key < mates[j].key
		}
		return mates[i].rank < mates[j].rank
	})
	group := make([]int, len(mates))
	for i, m := range mates {
		group[i] = c.group[m.rank]
	}
	commKey := fmt.Sprintf("split:%d:%d:%d", c.id, seq, color)
	return c.w.getOrCreateComm(commKey, group)
}
