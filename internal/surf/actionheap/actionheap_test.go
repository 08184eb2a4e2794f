package actionheap

import (
	"math/rand"
	"testing"
	"testing/quick"

	"smpigo/internal/core"
)

// testAction is the test double: a mutable action whose current due date
// is the reference state the heap must agree with, and whose pos the heap
// keeps.
type testAction struct {
	id   int
	due  core.Time
	pos  int
	dead bool
}

// scanMin is the exhaustive reference: the earliest live due date, the
// linear scan the heap replaces.
func scanMin(live []*testAction) core.Time {
	next := core.TimeForever
	for _, a := range live {
		if !a.dead && a.due < next {
			next = a.due
		}
	}
	return next
}

// checkPositions fails unless every stored entry's owner records the
// entry's own position, and every action outside the heap records 0.
func checkPositions(t *testing.T, step int, h *Heap[*testAction], all []*testAction) {
	t.Helper()
	stored := make(map[*testAction]bool, len(h.items))
	for i, e := range h.items {
		if e.pos != &e.action.pos || e.action.pos != i+1 {
			t.Fatalf("step %d: entry %d of action %d records position %d", step, i+1, e.action.id, e.action.pos)
		}
		stored[e.action] = true
	}
	for _, a := range all {
		if !stored[a] && a.pos != 0 {
			t.Fatalf("step %d: action %d has no entry but records position %d", step, a.id, a.pos)
		}
	}
}

// TestHeapMatchesScanUnderChurn is the property test of the event path:
// after every mutation (start, restamp, completion) of a fuzzed churn
// sequence, the heap's NextDue equals the exhaustive scan over the live
// population. Completion pops the earliest entry, as the models do.
func TestHeapMatchesScanUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h Heap[*testAction]
	var all []*testAction
	now := core.Time(0)
	nextID := 0

	start := func() {
		a := &testAction{id: nextID, due: now + core.Time(rng.Float64())}
		nextID++
		all = append(all, a)
		h.Push(a, a.due, &a.pos)
	}
	liveActions := func() []*testAction {
		var live []*testAction
		for _, a := range all {
			if !a.dead {
				live = append(live, a)
			}
		}
		return live
	}
	for i := 0; i < 16; i++ {
		start()
	}
	for step := 0; step < 5000; step++ {
		now += core.Time(rng.Float64() * 0.01)
		live := liveActions()
		switch op := rng.Intn(3); {
		case op == 0 || len(live) == 0: // start a new action
			start()
		case op == 1: // restamp a random live action (rate change)
			a := live[rng.Intn(len(live))]
			a.due = now + core.Time(rng.Float64())
			h.Update(a.pos, a.due)
		default: // complete the earliest action
			a, due, _ := h.Pop()
			if due != a.due {
				t.Fatalf("step %d: popped action %d at %v, its date is %v", step, a.id, due, a.due)
			}
			a.dead = true
		}
		if got, want := h.NextDue(), scanMin(liveActions()); got != want {
			t.Fatalf("step %d: heap NextDue %v, exhaustive scan %v", step, got, want)
		}
		if len(h.items) != len(liveActions()) {
			t.Fatalf("step %d: %d entries for %d live actions", step, len(h.items), len(liveActions()))
		}
	}
}

// TestRekeyStress restamps a fixed population thousands of times, then
// drains it with restamps mixed in — the pure rate-churn case. After every
// operation each live action's position names its own entry, the heap
// holds exactly one entry per live action, and it answers the scan's
// minimum.
func TestRekeyStress(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Heap[*testAction]
	const population = 64
	live := make([]*testAction, population)
	for i := range live {
		live[i] = &testAction{id: i, due: core.Time(rng.Float64())}
		h.Push(live[i], live[i].due, &live[i].pos)
		checkPositions(t, -1, &h, live[:i+1])
	}
	for step := 0; step < 20000; step++ {
		a := live[rng.Intn(population)]
		a.due = core.Time(rng.Float64())
		h.Update(a.pos, a.due)
		checkPositions(t, step, &h, live)
		if got, want := h.NextDue(), scanMin(live); got != want {
			t.Fatalf("step %d: heap NextDue %v, scan %v", step, got, want)
		}
		if len(h.items) != population {
			t.Fatalf("step %d: %d entries for %d actions", step, len(h.items), population)
		}
	}
	// Drain: every action pops exactly once, in due order, while the
	// actions still stored keep being re-keyed to later dates.
	prev := core.Time(-1)
	for popped := 0; popped < population; popped++ {
		a, due, ok := h.Pop()
		if !ok {
			t.Fatalf("heap empty after %d pops, want %d", popped, population)
		}
		if due != a.due || due < prev {
			t.Fatalf("pop %d: got (%v, action due %v), prev %v", popped, due, a.due, prev)
		}
		prev = due
		a.dead = true
		if b := live[rng.Intn(population)]; !b.dead {
			b.due += core.Time(rng.Float64())
			h.Update(b.pos, b.due)
		}
		checkPositions(t, popped, &h, live)
		if got, want := h.NextDue(), scanMin(live); got != want {
			t.Fatalf("pop %d: heap NextDue %v, scan %v", popped, got, want)
		}
	}
	if _, _, ok := h.Pop(); ok {
		t.Error("heap should be empty after every action popped")
	}
}

// TestUpdateTiesLikeAFreshPush: an Update takes a fresh sequence number, so
// an entry re-keyed to a date others already hold pops after them — in the
// order a fresh push would have — and an entry re-keyed away and back loses
// its place.
func TestUpdateTiesLikeAFreshPush(t *testing.T) {
	var h Heap[*testAction]
	actions := make([]*testAction, 4)
	for i := range actions {
		actions[i] = &testAction{id: i}
		h.Push(actions[i], core.Time(1+i%2), &actions[i].pos) // dates 1, 2, 1, 2
	}
	h.Update(actions[1].pos, 1) // joins 0 and 2 at date 1, behind them
	h.Update(actions[0].pos, 1) // same date, but now behind 2 and 1
	for _, want := range []int{2, 1, 0, 3} {
		a, _, ok := h.Pop()
		if !ok || a.id != want {
			t.Fatalf("popped %+v, want action %d", a, want)
		}
		if a.pos != 0 {
			t.Errorf("popped action %d records position %d, want 0", a.id, a.pos)
		}
	}
}

// TestPopTieBreak: equal dates pop in push order, the determinism contract
// the models' wakeup ordering builds on.
func TestPopTieBreak(t *testing.T) {
	var h Heap[*testAction]
	actions := make([]*testAction, 8)
	for i := range actions {
		actions[i] = &testAction{id: i, due: 1.5}
		h.Push(actions[i], 1.5, nil)
	}
	for i := range actions {
		a, _, ok := h.Pop()
		if !ok || a.id != i {
			t.Fatalf("pop %d: got action %+v, want id %d (push order)", i, a, i)
		}
	}
}

// The tests below moved here from core.EventQueue when the simix timer
// queue was ported onto this heap (the EventQueue was deleted); they pin the
// ordering contract the kernel's timers rely on.

// TestOrdering: pops come out in date order regardless of push order.
func TestOrdering(t *testing.T) {
	var h Heap[*testAction]
	for _, due := range []core.Time{3, 1, 2} {
		h.Push(&testAction{id: int(due)}, due, nil)
	}
	for _, want := range []int{1, 2, 3} {
		a, due, ok := h.Pop()
		if !ok || a.id != want || due != core.Time(want) {
			t.Fatalf("pop order wrong: want id %d, got (%+v, %v, %v)", want, a, due, ok)
		}
	}
	if _, _, ok := h.Pop(); ok {
		t.Error("empty heap should report !ok")
	}
}

// TestFIFOTies: same-date entries pop in push order — the timer-queue FIFO
// guarantee (two futures scheduled for the same date fulfill in the order
// FulfillAt was called).
func TestFIFOTies(t *testing.T) {
	var h Heap[*testAction]
	for i := 0; i < 10; i++ {
		h.Push(&testAction{id: i}, 1, nil)
	}
	for i := 0; i < 10; i++ {
		if a, _, ok := h.Pop(); !ok || a.id != i {
			t.Fatalf("tie-break not FIFO: got %+v want id %d", a, i)
		}
	}
}

// TestPeekDoesNotConsume: Peek returns the earliest entry and leaves it.
func TestPeekDoesNotConsume(t *testing.T) {
	var h Heap[*testAction]
	h.Push(&testAction{id: 5}, 5, nil)
	h.Push(&testAction{id: 4}, 4, nil)
	if a, due, ok := h.Peek(); !ok || a.id != 4 || due != 4 {
		t.Errorf("Peek = (%+v, %v, %v), want id 4 at date 4", a, due, ok)
	}
	if len(h.items) != 2 {
		t.Error("Peek must not consume")
	}
}

// Property: popping a randomly-filled heap yields dates in non-decreasing
// order, with and without interleaved re-keys to the date's mirror image.
func TestHeapProperty(t *testing.T) {
	f := func(dates []uint16, rekeyMask []bool) bool {
		var h Heap[*testAction]
		var actions []*testAction
		for _, d := range dates {
			a := &testAction{due: core.Time(d)}
			actions = append(actions, a)
			h.Push(a, a.due, &a.pos)
		}
		for i, a := range actions {
			if i < len(rekeyMask) && rekeyMask[i] {
				a.due = core.Time(65535 - a.due)
				h.Update(a.pos, a.due)
			}
		}
		last := core.Time(-1)
		for range actions {
			a, due, ok := h.Pop()
			if !ok || due < last || due != a.due || a.pos != 0 {
				return false
			}
			last = due
		}
		return len(h.items) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestEmptyHeap: zero-value heap answers the no-pending-event sentinel.
func TestEmptyHeap(t *testing.T) {
	var h Heap[*testAction]
	if got := h.NextDue(); got != core.TimeForever {
		t.Errorf("empty heap NextDue %v, want TimeForever", got)
	}
	if _, _, ok := h.Peek(); ok {
		t.Error("Peek on empty heap reported ok")
	}
	if _, _, ok := h.Pop(); ok {
		t.Error("Pop on empty heap reported ok")
	}
}

// TestStreamHeadsMergeLikeAFlatHeap is the property the packet emulator
// builds on: sorted runs of entries, each entry keeping a sequence number
// reserved when it was scheduled, merge through a heap of run heads (pop a
// head, push the run's next entry under its reserved number) in exactly the
// (date, seq) order of pushing every entry into one flat heap. Runs are
// scheduled in chunks, either whole (Reserve(len)) or one entry at a time
// (Reserve(1)) interleaved with other runs, and dates tie inside and across
// runs.
func TestStreamHeadsMergeLikeAFlatHeap(t *testing.T) {
	type elem struct{ run, idx int }
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		runs := make([][]core.Time, 1+rng.Intn(8))
		for r := range runs {
			due := core.Time(rng.Intn(4))
			for range rng.Intn(12) {
				runs[r] = append(runs[r], due)
				due += core.Time(rng.Intn(3)) // ties inside a run
			}
		}
		var flat, heads Heap[elem]
		var stats Stats
		heads.Stats = &stats
		seqs := make([][]uint64, len(runs))
		next := make([]int, len(runs)) // entries of each run scheduled so far
		total := 0
		for scheduled := true; scheduled; {
			scheduled = false
			for _, r := range rng.Perm(len(runs)) {
				n := len(runs[r]) - next[r]
				if n == 0 {
					continue
				}
				if r%2 == 1 || rng.Intn(3) > 0 {
					n = 1 // trickle: one entry now, the rest in later rounds
				}
				seq := heads.Reserve(n)
				for i := next[r]; i < next[r]+n; i++ {
					flat.Push(elem{r, i}, runs[r][i], nil)
					seqs[r] = append(seqs[r], seq+uint64(i-next[r]))
				}
				next[r] += n
				total += n
				scheduled = true
			}
		}
		for r := range runs {
			if len(runs[r]) > 0 {
				heads.PushSeq(elem{r, 0}, runs[r][0], seqs[r][0], nil)
			}
		}
		for i := 0; i < total; i++ {
			want, wantDue, _ := flat.Pop()
			got, due, ok := heads.Pop()
			if !ok || got != want || due != wantDue {
				t.Fatalf("trial %d pop %d: merge gave %+v at %v, flat heap %+v at %v", trial, i, got, due, want, wantDue)
			}
			if j := got.idx + 1; j < len(runs[got.run]) {
				heads.PushSeq(elem{got.run, j}, runs[got.run][j], seqs[got.run][j], nil)
			}
			if len(heads.items) > len(runs) {
				t.Fatalf("trial %d: %d entries for %d runs", trial, len(heads.items), len(runs))
			}
		}
		if len(heads.items) != 0 || stats.Pushes != uint64(total) {
			t.Fatalf("trial %d: %d left over, %d pushes for %d entries", trial, len(heads.items), stats.Pushes, total)
		}
	}
}

// TestReplaceTopMatchesPopAndPush: on seeded random keys that tie on the
// date, a heap that replaces its top in one sift pops the same (action,
// date) sequence as one that pops and then pushes, and counts the same
// pushes, pops and high-water length. Some replacements use a number
// reserved well before, as the emulator's streams do.
func TestReplaceTopMatchesPopAndPush(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		var replace, popPush Heap[int]
		var rs, ps Stats
		replace.Stats, popPush.Stats = &rs, &ps
		var reserved []uint64 // numbers taken from both heaps, not yet pushed
		id := 0
		for range 1 + rng.Intn(20) {
			due := core.Time(rng.Intn(8))
			replace.Push(id, due, nil)
			popPush.Push(id, due, nil)
			id++
		}
		for step := 0; step < 200 && len(popPush.items) > 0; step++ {
			if rng.Intn(4) == 0 {
				seq := replace.Reserve(1)
				if popPush.Reserve(1) != seq {
					t.Fatalf("trial %d: the heaps' counters diverged", trial)
				}
				reserved = append(reserved, seq)
			}
			want, wantDue, _ := popPush.Peek()
			got, due, _ := replace.Peek()
			if got != want || due != wantDue {
				t.Fatalf("trial %d step %d: ReplaceTop heap has %d at %v on top, Pop+PushSeq heap %d at %v", trial, step, got, due, want, wantDue)
			}
			switch rng.Intn(4) {
			case 0: // the stream ends
				replace.Pop()
				popPush.Pop()
			case 1: // an unrelated push, possibly earlier than the top
				due := wantDue + core.Time(rng.Intn(3)-1)
				replace.Push(id, due, nil)
				popPush.Push(id, due, nil)
				id++
			default: // the stream's next entry, under a fresh or an old number
				due := wantDue + core.Time(rng.Intn(3))
				seq := replace.Reserve(1)
				popPush.Reserve(1)
				if k := len(reserved); k > 0 && rng.Intn(2) == 0 {
					seq, reserved = reserved[k-1], reserved[:k-1]
				}
				replace.ReplaceTop(id, due, seq)
				popPush.Pop()
				popPush.PushSeq(id, due, seq, nil)
				id++
			}
		}
		for len(popPush.items) > 0 {
			want, wantDue, _ := popPush.Pop()
			got, due, ok := replace.Pop()
			if !ok || got != want || due != wantDue {
				t.Fatalf("trial %d drain: ReplaceTop heap popped %d at %v, Pop+PushSeq heap %d at %v", trial, got, due, want, wantDue)
			}
		}
		if len(replace.items) != 0 || rs != ps {
			t.Fatalf("trial %d: %d left over, stats %+v, want %+v", trial, len(replace.items), rs, ps)
		}
	}
}
