package lmm

import (
	"math"
	"testing"
)

// The fuzz target drives the same churn space as
// TestIncrementalMatchesFromScratch — add/remove variables, retune
// capacities, vary shares and bounds — but lets the fuzzer pick the op
// sequence from raw bytes instead of a fixed RNG, so the corpus can walk
// into dirty-set corners the property test's distribution rarely visits.
//
// fuzzOps decodes one byte stream into a deterministic churn schedule:
//
//	byte 0          constraint count (3..10)
//	byte 1..n       one byte per constraint: capacity (b%100)/2, FatPipe
//	                when b%5 == 4
//	rest            op stream, one op per group of bytes (see fuzzChurn)
//
// Every byte is consumed modulo its domain, so all inputs are valid — the
// fuzzer can only explore, never "miss".

// fuzzReader hands out bytes until the input is exhausted.
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) next() (byte, bool) {
	if r.pos >= len(r.data) {
		return 0, false
	}
	b := r.data[r.pos]
	r.pos++
	return b, true
}

// fuzzChurn replays the decoded schedule on an incrementally-solved system,
// asserting check after every op and full bit-identity against from-scratch
// rebuilds. A twin system takes the same mutation history with its free list
// emptied after every removal, so it never gives a Variable a second life:
// every Solve must resolve the same variables, in the same order, to the
// same values on both.
func fuzzChurn(t *testing.T, data []byte) {
	r := &fuzzReader{data: data}
	b, ok := r.next()
	if !ok {
		return
	}
	nCons := 3 + int(b)%8
	type consSpec struct {
		capacity float64
		policy   SharingPolicy
	}
	specs := make([]consSpec, nCons)
	s, twin := New(), New()
	cons, twinCons := make([]*Constraint, nCons), make([]*Constraint, nCons)
	for i := range cons {
		cb, ok := r.next()
		if !ok {
			cb = byte(17 * (i + 1))
		}
		specs[i] = consSpec{capacity: float64(cb%100) / 2, policy: Shared}
		if cb%5 == 4 {
			specs[i].policy = FatPipe
		}
		cons[i] = s.NewConstraint("c", specs[i].capacity, specs[i].policy)
		twinCons[i] = twin.NewConstraint("c", specs[i].capacity, specs[i].policy)
	}

	weights := [4]float64{0, 0.5, 1, 2}
	var live []churnRecord
	addVar := func() bool {
		wb, ok := r.next()
		if !ok {
			return false
		}
		weight := weights[wb%4]
		bound := math.Inf(1)
		if bb, ok := r.next(); ok && bb%3 == 0 {
			bound = float64(bb%120) / 4
		}
		hb, _ := r.next()
		hops := 1 + int(hb)%3
		route := make([]int, 0, hops)
		for len(route) < hops {
			rb, ok := r.next()
			if !ok {
				break
			}
			h := int(rb) % nCons
			dup := false
			for _, e := range route {
				if e == h {
					dup = true
				}
			}
			if !dup {
				route = append(route, h)
			}
		}
		if len(route) == 0 {
			route = append(route, int(hb)%nCons)
		}
		v, tv := s.NewVariable("v", weight, bound), twin.NewVariable("v", weight, bound)
		for _, h := range route {
			s.Attach(v, cons[h])
			twin.Attach(tv, twinCons[h])
		}
		live = append(live, churnRecord{v: v, weight: weight, bound: bound, route: route, twin: tv})
		return true
	}
	remove := func(i int) {
		s.RemoveVariable(live[i].v)
		twin.RemoveVariable(live[i].twin)
		twin.freeVars = nil
		live = append(live[:i], live[i+1:]...)
	}

	crossCheck := func(op int) {
		// Bitwise reference 1: from-scratch rebuild of the survivors, under
		// the constraints' current capacities.
		ref := New()
		refCons := make([]*Constraint, nCons)
		for i := range specs {
			refCons[i] = ref.NewConstraint("c", cons[i].Capacity, specs[i].policy)
		}
		refVars := make([]*Variable, len(live))
		for i, rec := range live {
			refVars[i] = ref.NewVariable("v", rec.v.Weight, rec.v.Bound)
			for _, h := range rec.route {
				ref.Attach(refVars[i], refCons[h])
			}
		}
		ref.solveFull()
		for i, rec := range live {
			if rec.v.Value != refVars[i].Value {
				t.Fatalf("op %d: incremental value %v != from-scratch %v (var %d)",
					op, rec.v.Value, refVars[i].Value, i)
			}
		}
		// Bitwise reference 2: in-place full re-solve.
		got := make([]float64, len(live))
		for i, rec := range live {
			got[i] = rec.v.Value
		}
		s.solveFull()
		for i, rec := range live {
			if rec.v.Value != got[i] {
				t.Fatalf("op %d: solveFull value %v != incremental %v (var %d)",
					op, rec.v.Value, got[i], i)
			}
		}
	}

	const maxOps = 48
	for op := 0; op < maxOps; op++ {
		ob, ok := r.next()
		if !ok {
			break
		}
		switch ob % 7 {
		case 0, 1:
			if len(live) >= 40 || !addVar() {
				if len(live) == 0 {
					return
				}
				ib, _ := r.next()
				remove(int(ib) % len(live))
			}
		case 2, 6:
			if len(live) == 0 {
				continue
			}
			ib, _ := r.next()
			remove(int(ib) % len(live))
			if ob%7 == 6 {
				// Remove and create in the same step: the new variable is
				// the removed one's second life.
				addVar()
			}
		case 3:
			ib, _ := r.next()
			cb, _ := r.next()
			s.SetCapacity(cons[int(ib)%nCons], float64(cb%100)/2)
			twin.SetCapacity(twinCons[int(ib)%nCons], float64(cb%100)/2)
		case 4:
			if len(live) == 0 {
				continue
			}
			ib, _ := r.next()
			wb, _ := r.next()
			rec := live[int(ib)%len(live)]
			rec.v.Weight, rec.twin.Weight = weights[wb%4], weights[wb%4]
			s.markVariableDirty(rec.v)
			twin.markVariableDirty(rec.twin)
		case 5:
			if len(live) == 0 {
				continue
			}
			ib, _ := r.next()
			bb, _ := r.next()
			rec := live[int(ib)%len(live)]
			if bb%3 == 0 {
				rec.v.Bound = math.Inf(1)
			} else {
				rec.v.Bound = float64(bb%120) / 4
			}
			rec.twin.Bound = rec.v.Bound
			s.markVariableDirty(rec.v)
			twin.markVariableDirty(rec.twin)
		}
		s.Solve()
		if err := s.check(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		twin.Solve()
		got, want := s.Resolved(), twin.Resolved()
		if len(got) != len(want) {
			t.Fatalf("op %d: %d variables resolved, %d without recycling", op, len(got), len(want))
		}
		for i := range got {
			if got[i].id != want[i].id || got[i].Value != want[i].Value {
				t.Fatalf("op %d: resolved[%d] is variable %d = %v, without recycling variable %d = %v",
					op, i, got[i].id, got[i].Value, want[i].id, want[i].Value)
			}
		}
		if op%4 == 0 {
			crossCheck(op)
		}
	}
	crossCheck(maxOps)
}

// fuzzSeeds is the committed starting corpus (also mirrored under
// testdata/fuzz/): op streams distilled from the churn property test's
// distribution — add-heavy growth, remove-heavy drain, capacity retuning,
// and share/bound variation.
var fuzzSeeds = [][]byte{
	[]byte("0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"),
	[]byte("\x05aaaaaa000000000000111111111111222222333333444444555555"),
	[]byte("\x09\x04\x13\x22\x31\x40\x4f\x5e\x6d\x7cadd00add11add22rm3cap4w5b6add77add88rm9capAwBbCaddDDrmEcapF"),
	[]byte("\x03\x63\x63\x63000000333333333333444444444444555555555555000000222222"),
	[]byte("lmm-churn: grow, retune, vary, drain; grow, retune, vary, drain"),
	// Six variables over four constraints, then twenty times op 6 — one
	// leaves and one arrives in the same step, on the leaver's recycled
	// object — with a capacity retuned every fifth.
	// Three Shared constraints. Constraint 0 loses its only variable, has
	// its capacity retuned while empty, and is refilled by a variable that
	// also crosses constraint 1; both are emptied and refilled again, once
	// through op 6: an emptied constraint is no component, a refilled one
	// is solved as before.
	[]byte("\x00ABC\x00\x02\x01\x00\x00\x00\x02\x01\x00\x01\x02\x00\x03\x00\x14\x00\x02\x01\x01\x00\x01\x02\x01\x00\x03\x03\x00\x00\x06\x00\x02\x01\x00\x01\x02\x00\x02\x00\x00\x02\x01\x02\x00\x01\x02"),
	[]byte("\x01bba`\x00\x02\x01\x01\x00\x01\x00\x02\x01\x01\x01\x02\x00\x02\x01\x01\x02\x03\x00\x02\x01\x01\x03\x04\x00\x02\x01\x01\x04\x05\x00\x02\x01\x01\x05\x06\x06*\x02\x01\x02\x00\x02\x03\x062\x02\x01\x02\x01\x03\x04\x06:\x02\x01\x02\x02\x04\x05\x06B\x02\x01\x02\x03\x05\x06\x06J\x02\x01\x02\x04\x06\a\x03\x04,\x06U\x02\x01\x02\x05\a\b\x06]\x02\x01\x02\x06\b\t\x06e\x02\x01\x02\a\t\n\x06m\x02\x01\x02\b\n\v\x06u\x02\x01\x02\t\v\f\x03\t1\x06\x80\x02\x01\x02\n\f\r\x06\x88\x02\x01\x02\v\r\x0e\x06\x90\x02\x01\x02\f\x0e\x0f\x06\x98\x02\x01\x02\r\x0f\x10\x06\xa0\x02\x01\x02\x0e\x10\x11\x03\x0e6\x06\xab\x02\x01\x02\x0f\x11\x12\x06\xb3\x02\x01\x02\x10\x12\x13\x06\xbb\x02\x01\x02\x11\x13\x14\x06\xc3\x02\x01\x02\x12\x14\x15\x06\xcb\x02\x01\x02\x13\x15\x16\x03\x13;"),
}

// FuzzIncrementalMatchesFromScratch fuzzes the incremental solver:
// after every decoded churn op the incremental allocation must satisfy
// System.check and match a from-scratch rebuild bit-for-bit. This is the
// property test's oracle under fuzzer-chosen schedules.
func FuzzIncrementalMatchesFromScratch(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzChurn(t, data)
	})
}
