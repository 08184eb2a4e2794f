// Package actionheap provides the completion-time min-heap shared by the
// kernel's resource models (surf.Network, surf.CPU, emu.Net) and the simix
// timer queue. It is the data structure that makes the event path sublinear
// in population: a model answers NextEvent with an O(1) peek at the earliest
// date instead of scanning every in-flight action, and each churn event (an
// action starting, completing, or changing rate) costs one O(log n) heap
// operation.
//
// # One entry per action
//
// The heap is indexed, as SimGrid SURF's action heap is: it holds at most
// one entry per action and re-keys it in place. A caller that will change
// an action's date passes Push a pointer to an int; the heap keeps the
// entry's 1-based position there while the entry is stored and writes 0
// when it is popped, so the zero value means "no entry". When the date
// changes — in surf, exactly when lmm.Solve's Resolved() set hands the model
// a new rate — the model calls Update with that position. Entries whose
// date never changes (emu's hop events, simix timers) pass nil and pay
// nothing for the index but a nil check per sift step.
//
// # Determinism
//
// Ties on the date are broken by sequence number, taken from one counter by
// Push, Update and Reserve alike: an updated entry ties like a fresh push,
// and an entry pushed with PushSeq under a reserved number ties like a push
// made at the reservation (emu.Net holds only the head of each sorted stream
// of hop events that way). Pop order — and therefore everything downstream
// of it: model wakeup order, actor scheduling, the simulated timestamps of a
// whole campaign — depends only on the order of those calls, never on heap
// internals. Models that need a different tie order among simultaneous
// events (surf completes flows in start order, not restamp order) collect
// the qualifying pops first and sort them by their own serial.
package actionheap

import "smpigo/internal/core"

// entry is one (date, sequence, action) record in the heap. pos, when
// non-nil, receives the entry's 1-based position.
type entry[T any] struct {
	due    core.Time
	seq    uint64
	action T
	pos    *int
}

// Stats accumulates heap counters when attached via the Stats field. Every
// hook is a nil check; a heap without stats attached pays nothing.
type Stats struct {
	// Pushes counts Push, PushSeq and Update calls: every date the heap
	// was given.
	Pushes uint64
	// Pops counts entries handed to the model (Pop with ok == true).
	Pops uint64
	// MaxLen is the high-water entry count.
	MaxLen int
}

// Heap is a binary min-heap of actions ordered by date, then sequence
// number. The zero value is ready to use.
type Heap[T any] struct {
	items []entry[T]
	seq   uint64

	// Stats, when non-nil, accumulates push/pop counters.
	Stats *Stats
}

// Len reports the number of entries currently stored (for tests and stats).
func (h *Heap[T]) Len() int { return len(h.items) }

// Push schedules action at date due. If pos is non-nil the heap keeps the
// entry's 1-based position in *pos until the entry is popped, for Update.
func (h *Heap[T]) Push(action T, due core.Time, pos *int) {
	h.PushSeq(action, due, h.Reserve(1), pos)
}

// Reserve takes n consecutive sequence numbers from the counter Push and
// Update draw on and returns the first. An entry pushed under one with
// PushSeq ties exactly like a Push made at the time of the reservation.
func (h *Heap[T]) Reserve(n int) uint64 {
	h.seq += uint64(n)
	return h.seq - uint64(n)
}

// PushSeq is Push under a sequence number taken earlier from Reserve.
func (h *Heap[T]) PushSeq(action T, due core.Time, seq uint64, pos *int) {
	h.items = append(h.items, entry[T]{due: due, seq: seq, action: action, pos: pos})
	h.up(len(h.items) - 1)
	if h.Stats != nil {
		h.Stats.Pushes++
		if len(h.items) > h.Stats.MaxLen {
			h.Stats.MaxLen = len(h.items)
		}
	}
}

// Update re-keys the entry at 1-based position pos (as kept by Push) to
// date due, under a fresh sequence number: the entry then ties like a Push
// made now.
func (h *Heap[T]) Update(pos int, due core.Time) {
	i := pos - 1
	h.items[i].due, h.items[i].seq = due, h.seq
	h.seq++
	h.down(h.up(i))
	if h.Stats != nil {
		h.Stats.Pushes++
	}
}

// Peek returns the earliest action and its date without removing it. ok is
// false when the heap is empty.
func (h *Heap[T]) Peek() (action T, due core.Time, ok bool) {
	if len(h.items) == 0 {
		var zero T
		return zero, 0, false
	}
	return h.items[0].action, h.items[0].due, true
}

// Pop removes and returns the earliest action and its date. ok is false
// when the heap is empty.
func (h *Heap[T]) Pop() (action T, due core.Time, ok bool) {
	if len(h.items) == 0 {
		var zero T
		return zero, 0, false
	}
	top := h.items[0]
	if top.pos != nil {
		*top.pos = 0
	}
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items[last] = entry[T]{} // release the action for GC
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	if h.Stats != nil {
		h.Stats.Pops++
	}
	return top.action, top.due, true
}

// NextDue returns the date of the earliest entry, or core.TimeForever when
// the heap is empty — exactly the simix.Model NextEvent contract.
func (h *Heap[T]) NextDue() core.Time {
	if len(h.items) == 0 {
		return core.TimeForever
	}
	return h.items[0].due
}

func (h *Heap[T]) less(a, b *entry[T]) bool {
	if a.due != b.due {
		return a.due < b.due
	}
	return a.seq < b.seq
}

// place stores e at index i and records the position for its owner.
func (h *Heap[T]) place(i int, e entry[T]) {
	h.items[i] = e
	if e.pos != nil {
		*e.pos = i + 1
	}
}

// up sifts the entry at i toward the root and returns where it settled.
func (h *Heap[T]) up(i int) int {
	e := h.items[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(&e, &h.items[parent]) {
			break
		}
		h.place(i, h.items[parent])
		i = parent
	}
	h.place(i, e)
	return i
}

// down sifts the entry at i toward the leaves.
func (h *Heap[T]) down(i int) {
	e := h.items[i]
	for {
		child := 2*i + 1
		if child >= len(h.items) {
			break
		}
		if r := child + 1; r < len(h.items) && h.less(&h.items[r], &h.items[child]) {
			child = r
		}
		if !h.less(&h.items[child], &e) {
			break
		}
		h.place(i, h.items[child])
		i = child
	}
	h.place(i, e)
}
