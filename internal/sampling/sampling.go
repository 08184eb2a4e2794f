// Package sampling implements the two single-node scalability techniques of
// the paper's Section 3, which in SMPI are exposed as C preprocessor macros
// and here as library calls keyed by a call-site identifier:
//
//   - CPU-burst sampling (SMPI_SAMPLE_LOCAL / SMPI_SAMPLE_GLOBAL /
//     SMPI_SAMPLE_DELAY): a burst is genuinely executed and timed only its
//     first n occurrences — per rank (local) or across all ranks (global) —
//     and afterwards replaced by its mean measured duration; with n = 0 the
//     burst is never executed and a user-supplied flop amount is charged.
//
//   - RAM folding (SMPI_SHARED_MALLOC / SMPI_FREE): because all simulated
//     ranks live in one address space, m ranks allocating the same logical
//     array of size s can share a single buffer, cutting the footprint from
//     m*s to s (technique #1 of [Adve et al. 2002], used by the paper).
//     A folded block is not a Go heap object but an anonymous mapping, as
//     in SimGrid's smpi_shared_malloc: the OS commits its pages only when
//     they are touched, and Release unmaps every block of the world at once.
//
// The package also provides the accounting allocator used to reproduce the
// paper's Figure 16 (maximum resident set size per process, with and
// without folding).
package sampling

import (
	"fmt"
	"slices"
	"time"
	"unsafe"

	"smpigo/internal/core"
)

// Registry holds sampling and folding state for one simulated world.
// All access happens from the sequential simulation, so no locking.
type Registry struct {
	// Stopwatch returns monotonic wall-clock time; tests may replace it.
	Stopwatch func() time.Duration

	ranks int
	sites map[string]*site

	shared      []*sharedBuf // live folded blocks, in allocation order
	sharedBytes int64        // running total of their sizes (Figure 16 accounting)
	scratch     [][]byte     // SharedScratch blocks: folded, never accounted
	mapped      [][]byte     // every block mapped so far, freed or not, for Release

	private []int64 // current private bytes per rank
	peak    []float64

	executed int64 // bursts actually executed (stats)
	replayed int64 // bursts replaced by a mean delay (stats)
}

type site struct {
	remaining int
	samples   int
	sum       core.Duration
}

type sharedBuf struct {
	key  string
	data []byte
	refs int
}

// NewRegistry creates a registry for a world of the given rank count.
func NewRegistry(ranks int) *Registry {
	start := time.Now()
	return &Registry{
		Stopwatch: func() time.Duration { return time.Since(start) },
		ranks:     ranks,
		sites:     make(map[string]*site),
		private:   make([]int64, ranks),
		peak:      make([]float64, ranks),
	}
}

// Executed and Replayed report how many bursts ran for real vs. were
// replaced by a replayed mean delay.
func (r *Registry) Executed() int64 { return r.executed }

// Replayed reports the number of bursts bypassed and replaced by a delay.
func (r *Registry) Replayed() int64 { return r.replayed }

// Sample runs one occurrence of the burst identified by key. If fewer than
// n occurrences have been recorded so far, fn is executed and timed and its
// wall-clock duration is returned with executed=true; otherwise fn is
// skipped and the mean of the recorded samples is returned.
//
// For SMPI_SAMPLE_LOCAL semantics the caller includes the rank in the key;
// for SMPI_SAMPLE_GLOBAL it does not, so all ranks feed the same counters
// (the paper's scalability trick for SPMD applications, Section 3.1).
func (r *Registry) Sample(key string, n int, fn func()) (d core.Duration, executed bool) {
	st, ok := r.sites[key]
	if !ok {
		st = &site{remaining: n}
		r.sites[key] = st
	}
	if st.remaining > 0 {
		st.remaining--
		begin := r.Stopwatch()
		fn()
		elapsed := core.Duration(float64(r.Stopwatch()-begin) / float64(time.Second))
		st.samples++
		st.sum += elapsed
		r.executed++
		return elapsed, true
	}
	r.replayed++
	if st.samples == 0 {
		return 0, false
	}
	return st.sum / core.Duration(st.samples), false
}

// Observe runs one occurrence of the burst identified by key without
// timing it: fn is executed for the first n occurrences and skipped
// afterwards, with the same executed/replayed accounting as Sample. Callers
// that charge a deterministic (modelled) cost per occurrence use Observe so
// the sampled path's simulated cost never depends on wall-clock noise.
func (r *Registry) Observe(key string, n int, fn func()) (executed bool) {
	st, ok := r.sites[key]
	if !ok {
		st = &site{remaining: n}
		r.sites[key] = st
	}
	if st.remaining > 0 {
		st.remaining--
		st.samples++
		r.executed++
		fn()
		return true
	}
	r.replayed++
	return false
}

// --- RAM folding ---

// SharedMalloc returns the shared buffer for key, allocating it on first
// use (the SMPI_SHARED_MALLOC macro). All ranks passing the same key and
// size receive the same backing array. It panics if the same key is
// requested with a different size.
//
// Folding is the paper's contract that the application does not depend on
// the bytes: memory handed out here is recognized by Shared, and the
// simulator moves no payload into or out of it. A new block reads zero and
// stays mapped until Release; a block the OS cannot map panics with a
// *MapError, which smpi.Run returns as the run's error.
func (r *Registry) SharedMalloc(key string, size int) []byte {
	i := r.lookup(key)
	if i < 0 {
		data, err := r.newBlock(size)
		if err != nil {
			panic(&MapError{fmt.Errorf("sampling: SharedMalloc(%q, %d bytes): %w", key, size, err)})
		}
		i = len(r.shared)
		r.shared = append(r.shared, &sharedBuf{key: key, data: data})
		r.sharedBytes += int64(size)
		// The folded total grew: every rank's share of it did too.
		for rank := range r.peak {
			r.updatePeak(rank)
		}
	}
	sb := r.shared[i]
	if len(sb.data) != size {
		panic(fmt.Sprintf("sampling: SharedMalloc(%q) size mismatch: %d vs %d", key, size, len(sb.data)))
	}
	sb.refs++
	return sb.data
}

// SharedFree drops one reference to the shared buffer (the SMPI_FREE
// macro); the buffer is released when the last rank frees it, after which
// slices of it no longer count as Shared. Its mapping stays until Release:
// an eager message in flight may still reference it, and a later
// SharedMalloc of the same key maps a fresh block rather than reusing it.
func (r *Registry) SharedFree(key string) {
	i := r.lookup(key)
	if i < 0 {
		return
	}
	sb := r.shared[i]
	sb.refs--
	if sb.refs <= 0 {
		r.shared = slices.Delete(r.shared, i, i+1)
		r.sharedBytes -= int64(len(sb.data))
	}
}

// lookup returns the index of the live block for key, or -1. Worlds fold a
// handful of arrays, so a scan beats a map and keeps allocation order for
// Shared.
func (r *Registry) lookup(key string) int {
	return slices.IndexFunc(r.shared, func(sb *sharedBuf) bool { return sb.key == key })
}

// Shared reports whether buf is folded memory: non-empty and lying wholly
// inside a live SharedMalloc block or a SharedScratch block. Such bytes are
// undefined by contract, so copies into or out of them can be skipped.
func (r *Registry) Shared(buf []byte) bool {
	if len(buf) == 0 {
		return false
	}
	for _, sb := range r.shared {
		if within(sb.data, buf) {
			return true
		}
	}
	for _, blk := range r.scratch {
		if within(blk, buf) {
			return true
		}
	}
	return false
}

// within reports whether the non-empty buf lies inside block. Blocks are
// mappings outside the Go heap, which never move, so comparing addresses is
// stable.
func within(block, buf []byte) bool {
	base := uintptr(unsafe.Pointer(unsafe.SliceData(block)))
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	return len(buf) <= len(block) && lo >= base && lo-base <= uintptr(len(block)-len(buf))
}

// SharedScratch returns n bytes of folded memory for temporaries whose
// contents nobody reads: a prefix of the first live block that is large
// enough, else a new registry-owned mapping that stays outside the Figure 16
// accounting (it stands for memory the application never asked for).
func (r *Registry) SharedScratch(n int) []byte {
	for _, sb := range r.shared {
		if len(sb.data) >= n {
			return sb.data[:n]
		}
	}
	for _, blk := range r.scratch {
		if len(blk) >= n {
			return blk[:n]
		}
	}
	blk, err := r.newBlock(n)
	if err != nil {
		panic(&MapError{fmt.Errorf("sampling: SharedScratch(%d bytes): %w", n, err)})
	}
	r.scratch = append(r.scratch, blk)
	return blk
}

// MapError is the panic value of SharedMalloc and SharedScratch when the OS
// will not map a block. Err names the block's key and size and wraps the OS
// error (syscall.ENOMEM on unix). The failure is the machine's, not the
// application's, so smpi.Run returns Err as the run's error.
type MapError struct{ Err error }

func (e *MapError) Error() string { return e.Err.Error() }

// newBlock maps a fresh zeroed block of n bytes and records it for Release.
func (r *Registry) newBlock(n int) ([]byte, error) {
	b, err := mapBlock(n)
	if err == nil && len(b) > 0 {
		r.mapped = append(r.mapped, b)
	}
	return b, err
}

// Release unmaps every block SharedMalloc and SharedScratch have mapped,
// freed or not; afterwards no former block counts as Shared, and touching
// one faults. Call it once nothing can reach the world's folded memory —
// smpi.Run does when its kernel has returned.
func (r *Registry) Release() {
	for _, b := range r.mapped {
		unmap(b)
	}
	r.mapped, r.shared, r.scratch, r.sharedBytes = nil, nil, nil, 0
}

// --- accounting allocator (Figure 16 metric) ---

// Malloc allocates a private buffer charged to rank's footprint.
func (r *Registry) Malloc(rank, size int) []byte {
	r.private[rank] += int64(size)
	r.updatePeak(rank)
	return make([]byte, size)
}

// Free returns size bytes of rank's private footprint.
func (r *Registry) Free(rank, size int) {
	r.private[rank] -= int64(size)
	if r.private[rank] < 0 {
		r.private[rank] = 0
	}
}

// updatePeak refreshes rank's peak. It runs wherever the footprint can
// grow — the rank's own Malloc, and for every rank when a new folded block
// appears — so the peak never has to be recomputed elsewhere.
func (r *Registry) updatePeak(rank int) {
	// A rank's accounted footprint is its private bytes plus its share of
	// the folded arrays (which exist once for the whole simulation).
	rss := float64(r.private[rank]) + float64(r.sharedBytes)/float64(r.ranks)
	if rss > r.peak[rank] {
		r.peak[rank] = rss
	}
}

// MaxPeakRSS returns the maximum per-rank accounted footprint in bytes —
// the quantity on the y-axis of the paper's Figure 16.
func (r *Registry) MaxPeakRSS() float64 {
	max := 0.0
	for _, p := range r.peak {
		if p > max {
			max = p
		}
	}
	return max
}
