package sampling

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"smpigo/internal/core"
)

// fakeClock advances a fixed amount per Stopwatch call pair, making timing
// deterministic in tests.
type fakeClock struct {
	now  time.Duration
	step time.Duration
}

func (c *fakeClock) get() time.Duration {
	c.now += c.step
	return c.now
}

func newTestRegistry(ranks int, step time.Duration) *Registry {
	r := NewRegistry(ranks)
	c := &fakeClock{step: step}
	r.Stopwatch = c.get
	return r
}

func TestSampleExecutesFirstNTimes(t *testing.T) {
	r := newTestRegistry(1, time.Millisecond)
	runs := 0
	for i := 0; i < 10; i++ {
		_, executed := r.Sample("site", 3, func() { runs++ })
		if want := i < 3; executed != want {
			t.Errorf("occurrence %d: executed=%v, want %v", i, executed, want)
		}
	}
	if runs != 3 {
		t.Errorf("burst ran %d times, want 3", runs)
	}
	if r.Executed() != 3 || r.Replayed() != 7 {
		t.Errorf("stats executed=%d replayed=%d, want 3/7", r.Executed(), r.Replayed())
	}
}

func TestSampleReplaysMean(t *testing.T) {
	r := newTestRegistry(1, 0)
	c := &fakeClock{}
	r.Stopwatch = c.get
	durations := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	i := 0
	for ; i < 3; i++ {
		c.step = durations[i] // elapsed = one step between the two reads
		r.Sample("s", 3, func() {})
	}
	d, executed := r.Sample("s", 3, func() { t.Fatal("must not execute") })
	if executed {
		t.Fatal("should have replayed")
	}
	want := 0.020
	if diff := float64(d) - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("replayed mean = %v, want 20ms", d)
	}
	if n := r.sites["s"].samples; n != 3 {
		t.Errorf("site has %d samples, want 3", n)
	}
}

func TestSampleZeroNNeverExecutes(t *testing.T) {
	r := newTestRegistry(1, time.Millisecond)
	d, executed := r.Sample("s", 0, func() { t.Fatal("n=0 must not execute") })
	if executed || d != 0 {
		t.Errorf("n=0 sample: executed=%v d=%v", executed, d)
	}
}

func TestLocalVsGlobalKeying(t *testing.T) {
	// Local sampling keys include the rank: 2 ranks x n=2 executions = 4.
	// Global sampling shares one site: 2 executions total.
	r := newTestRegistry(2, time.Millisecond)
	runs := 0
	for occurrence := 0; occurrence < 3; occurrence++ {
		for rank := 0; rank < 2; rank++ {
			r.Sample(fmt.Sprintf("local@rank%d", rank), 2, func() { runs++ })
		}
	}
	if runs != 4 {
		t.Errorf("local-keyed runs = %d, want 4", runs)
	}
	runs = 0
	for occurrence := 0; occurrence < 3; occurrence++ {
		for rank := 0; rank < 2; rank++ {
			r.Sample("global", 2, func() { runs++ })
		}
	}
	if runs != 2 {
		t.Errorf("global-keyed runs = %d, want 2", runs)
	}
}

func TestSharedMallocFoldsAllocation(t *testing.T) {
	r := newTestRegistry(4, 0)
	a := r.SharedMalloc("arr", 1000)
	b := r.SharedMalloc("arr", 1000)
	if &a[0] != &b[0] {
		t.Error("shared buffers should alias")
	}
	a[5] = 42
	if b[5] != 42 {
		t.Error("writes must be visible through all aliases")
	}
}

func TestSharedMallocSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("size mismatch should panic")
		}
	}()
	r := newTestRegistry(1, 0)
	r.SharedMalloc("arr", 10)
	r.SharedMalloc("arr", 20)
}

func TestSharedFreeRefCounting(t *testing.T) {
	r := newTestRegistry(2, 0)
	a := r.SharedMalloc("arr", 100)
	r.SharedMalloc("arr", 100)
	a[0] = 7
	r.SharedFree("arr")
	// Still referenced: a new request aliases the old data.
	c := r.SharedMalloc("arr", 100)
	if c[0] != 7 {
		t.Error("buffer should survive while referenced")
	}
	r.SharedFree("arr")
	r.SharedFree("arr")
	d := r.SharedMalloc("arr", 100)
	if d[0] != 0 {
		t.Error("after full release a fresh buffer should be allocated")
	}
	r.SharedFree("missing") // no-op
}

func TestSharedRecognizesFoldedMemory(t *testing.T) {
	r := newTestRegistry(2, 0)
	private := make([]byte, 64)
	if r.Shared(private) || r.Shared(nil) {
		t.Error("nothing is shared in a registry without blocks")
	}
	blk := r.SharedMalloc("arr", 100)
	r.SharedMalloc("arr", 100)
	other := r.SharedMalloc("other", 10)
	for name, buf := range map[string][]byte{
		"whole block": blk, "prefix": blk[:1], "middle": blk[40:60], "last byte": blk[99:],
		"second block": other[3:7],
	} {
		if !r.Shared(buf) {
			t.Errorf("%s of a live block must be shared", name)
		}
	}
	for name, buf := range map[string][]byte{
		"private": private, "nil": nil, "empty sub-slice": blk[50:50], "empty tail": blk[100:],
	} {
		if r.Shared(buf) {
			t.Errorf("%s must not be shared", name)
		}
	}
	r.SharedFree("arr")
	if !r.Shared(blk[10:20]) {
		t.Error("block must stay shared while one reference is left")
	}
	r.SharedFree("arr")
	if r.Shared(blk) || r.Shared(blk[10:20]) {
		t.Error("a freed block is private memory again")
	}
	if !r.Shared(other) {
		t.Error("freeing one block must not unshare another")
	}
}

// The range test is exact at both ends: a block carved out of the middle of
// an array shares none of its neighbours, not even the byte just past it.
func TestSharedRangeIsExact(t *testing.T) {
	arena := make([]byte, 30)
	r := newTestRegistry(1, 0)
	r.shared = append(r.shared, &sharedBuf{key: "mid", data: arena[10:20:20], refs: 1})
	for _, tc := range []struct {
		lo, hi int
		want   bool
	}{
		{10, 20, true}, {10, 11, true}, {19, 20, true}, {12, 17, true},
		{20, 21, false}, {9, 10, false}, {9, 11, false}, {19, 21, false}, {0, 30, false}, {20, 30, false},
	} {
		if got := r.Shared(arena[tc.lo:tc.hi]); got != tc.want {
			t.Errorf("Shared(arena[%d:%d]) = %v, want %v (block is arena[10:20])", tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestSharedScratchAliasesFoldedMemory(t *testing.T) {
	r := newTestRegistry(4, 0)
	first := r.SharedScratch(100)
	if len(first) != 100 || !r.Shared(first) {
		t.Fatalf("scratch must be %d shared bytes, got %d (shared=%v)", 100, len(first), r.Shared(first))
	}
	if again := r.SharedScratch(60); &again[0] != &first[0] || len(again) != 60 {
		t.Error("a smaller request must reuse the existing scratch block")
	}
	if r.MaxPeakRSS() != 0 {
		t.Errorf("scratch is outside the Figure 16 accounting, peak = %v", r.MaxPeakRSS())
	}
	blk := r.SharedMalloc("arr", 1000)
	if got := r.SharedScratch(500); &got[0] != &blk[0] || len(got) != 500 {
		t.Error("scratch must alias a live block that is large enough")
	}
	if big := r.SharedScratch(5000); len(big) != 5000 || !r.Shared(big) || !r.Shared(first) {
		t.Error("an oversize request gets a new shared block and keeps earlier ones shared")
	}
}

// TestMappedBlockLifetime: a block reads zero when it is mapped, a fresh
// mapping serves the key after its last SharedFree, the dropped one stays
// readable until Release, and Release leaves nothing Shared.
func TestMappedBlockLifetime(t *testing.T) {
	zero := func(b []byte) bool {
		for _, c := range b {
			if c != 0 {
				return false
			}
		}
		return true
	}
	r := newTestRegistry(2, 0)
	first := r.SharedMalloc("arr", 3<<20)
	if !zero(first) {
		t.Fatal("a fresh block must read zero")
	}
	for i := range first {
		first[i] = 0xAB
	}
	r.SharedFree("arr")
	second := r.SharedMalloc("arr", 3<<20)
	if &second[0] == &first[0] || !zero(second) {
		t.Error("a block re-allocated after its last free must be a fresh zeroed block")
	}
	if first[0] != 0xAB || first[len(first)-1] != 0xAB {
		t.Error("a freed block must stay readable until Release")
	}
	scratch := r.SharedScratch(4 << 20)
	empty := r.SharedMalloc("empty", 0)
	if len(empty) != 0 || r.Shared(empty) {
		t.Error("a zero-size block is empty and never Shared")
	}
	r.Release()
	for name, b := range map[string][]byte{"freed": first, "live": second, "scratch": scratch} {
		if r.Shared(b) || r.Shared(b[:1]) {
			t.Errorf("after Release the %s block must not be Shared", name)
		}
	}
	r.Release() // a second Release has nothing left to unmap
	if again := r.SharedMalloc("arr", 100); !zero(again) || !r.Shared(again) {
		t.Error("a released registry maps fresh blocks")
	}
	r.Release()
}

// TestUnmappableBlockPanicsWithKeyAndSize: a block the OS refuses to map
// is a *MapError panic naming what was asked for, not a dead process.
func TestUnmappableBlockPanicsWithKeyAndSize(t *testing.T) {
	r := newTestRegistry(1, 0)
	defer r.Release()
	for name, alloc := range map[string]func(){
		`SharedMalloc("neg", -1 bytes)`: func() { r.SharedMalloc("neg", -1) },
		`SharedScratch(-1 bytes)`:       func() { r.SharedScratch(-1) },
	} {
		func() {
			defer func() {
				mapErr, ok := recover().(*MapError)
				if !ok || !strings.Contains(mapErr.Error(), name) {
					t.Errorf("panic %v is no *MapError naming %s", mapErr, name)
				}
			}()
			alloc()
		}()
	}
}

func TestAccountingRSSWithoutFolding(t *testing.T) {
	r := newTestRegistry(4, 0)
	for rank := 0; rank < 4; rank++ {
		r.Malloc(rank, 1000)
	}
	if got := r.MaxPeakRSS(); got != 1000 {
		t.Errorf("per-rank RSS = %v, want 1000", got)
	}
}

func TestAccountingRSSWithFolding(t *testing.T) {
	// 4 ranks sharing one 1000-byte array: 250 bytes each.
	r := newTestRegistry(4, 0)
	for rank := 0; rank < 4; rank++ {
		r.SharedMalloc("arr", 1000)
	}
	if got := r.MaxPeakRSS(); got != 250 {
		t.Errorf("folded per-rank RSS = %v, want 250", got)
	}
}

// The peaks are maintained incrementally (a rank's own Malloc, every rank
// when a new folded block appears). Check them against the definition —
// recompute every rank's footprint after every event — under random churn.
func TestPeakMatchesBruteForce(t *testing.T) {
	const ranks = 7
	r := newTestRegistry(ranks, 0)
	rng := core.NewRNG(42)
	private := make([]int64, ranks)
	sizes := map[string]int{"a": 4096, "b": 100, "c": 33333}
	refs := map[string]int{}
	want := make([]float64, ranks)
	for step := 0; step < 5000; step++ {
		rank := int(rng.Uint64() % ranks)
		key := string(rune('a' + rng.Uint64()%3))
		switch rng.Uint64() % 4 {
		case 0:
			n := int(rng.Uint64() % 10000)
			r.Malloc(rank, n)
			private[rank] += int64(n)
		case 1:
			n := int(rng.Uint64() % 10000)
			r.Free(rank, n)
			private[rank] = max(private[rank]-int64(n), 0)
		case 2:
			r.SharedMalloc(key, sizes[key])
			refs[key]++
		case 3:
			r.SharedFree(key)
			refs[key] = max(refs[key]-1, 0)
		}
		var shared int64
		for k, n := range refs {
			if n > 0 {
				shared += int64(sizes[k])
			}
		}
		for i := range want {
			want[i] = max(want[i], float64(private[i])+float64(shared)/ranks)
			if r.peak[i] != want[i] {
				t.Fatalf("step %d: rank %d peak = %v, want %v", step, i, r.peak[i], want[i])
			}
		}
	}
}

func TestPeakIsSticky(t *testing.T) {
	r := newTestRegistry(1, 0)
	r.Malloc(0, 5000)
	r.Free(0, 5000)
	r.Malloc(0, 10)
	if got := r.MaxPeakRSS(); got != 5000 {
		t.Errorf("peak = %v, want sticky 5000", got)
	}
}

func TestFreeClampsAtZero(t *testing.T) {
	r := newTestRegistry(1, 0)
	r.Free(0, 100)
	r.Malloc(0, 10)
	if got := r.MaxPeakRSS(); got != 10 {
		t.Errorf("peak = %v, want 10 (no negative footprint)", got)
	}
}

func TestRealStopwatchMeasuresSomething(t *testing.T) {
	r := NewRegistry(1)
	d, executed := r.Sample("busy", 1, func() {
		s := 0.0
		for i := 0; i < 100000; i++ {
			s += float64(i)
		}
		_ = s
	})
	if !executed {
		t.Fatal("first occurrence must execute")
	}
	if d < 0 {
		t.Errorf("negative duration %v", d)
	}
}
