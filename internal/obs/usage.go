package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"smpigo/internal/core"
	"smpigo/internal/platform"
	"smpigo/internal/surf"
)

// Usage records the segment stream the models emit (see surf.UsageRecorder):
// per-link byte and per-host flop totals over the observed span, and, given a
// bucket width, the same amounts in fixed-width time bins. Every segment is
// an amount the model already moved (drained at a surf sync point, or a
// frame's payload on the emulator), never re-derived, so the per-link totals
// are conservative by construction: a message of S bytes over a k-link route
// contributes exactly k*S bytes, however many rate changes or frames it took.
//
// Totals are indexed by resource ID, so they cost one float64 per link
// plus one per host and each record is two array adds — cheap enough to
// leave on for whole campaigns. Buckets cost one float64 per (active
// resource, touched bucket); idle resources and empty trailing buckets
// cost nothing.
type Usage struct {
	plat      *platform.Platform
	linkBytes []float64
	hostFlops []float64

	// Observed span: the earliest segment start and latest segment end.
	// Utilization is bytes / (bandwidth * span).
	spanStart core.Time
	spanEnd   core.Time
	any       bool

	// width is the bucket width, 0 when only totals are kept. linkBuckets
	// and hostBuckets hold each resource's bytes/flops per bucket, indexed
	// by ID; nil until the resource is first recorded.
	width       core.Duration
	linkBuckets [][]float64
	hostBuckets [][]float64
}

// NewUsage creates a recorder sized for plat's current hosts and links.
// A positive width also buckets every segment into bins of that width; 0
// keeps totals only. A negative width panics.
func NewUsage(plat *platform.Platform, width core.Duration) *Usage {
	if width < 0 {
		panic(fmt.Sprintf("obs: negative usage bucket width %v", width))
	}
	u := &Usage{
		plat:      plat,
		linkBytes: make([]float64, len(plat.Links())),
		hostFlops: make([]float64, len(plat.Hosts())),
		width:     width,
	}
	if width > 0 {
		u.linkBuckets = make([][]float64, len(plat.Links()))
		u.hostBuckets = make([][]float64, len(plat.Hosts()))
	}
	return u
}

var _ surf.UsageRecorder = (*Usage)(nil)

func (u *Usage) span(from, to core.Time) {
	if !u.any || from < u.spanStart {
		u.spanStart = from
	}
	if !u.any || to > u.spanEnd {
		u.spanEnd = to
	}
	u.any = true
}

// RecordLink implements surf.UsageRecorder.
func (u *Usage) RecordLink(l *platform.Link, from, to core.Time, bytes float64) {
	u.linkBytes[l.ID] += bytes
	u.span(from, to)
	if u.width > 0 {
		u.linkBuckets[l.ID] = u.bucket(u.linkBuckets[l.ID], from, to, bytes)
	}
}

// RecordHost implements surf.UsageRecorder.
func (u *Usage) RecordHost(h *platform.Host, from, to core.Time, flops float64) {
	u.hostFlops[h.ID] += flops
	u.span(from, to)
	if u.width > 0 {
		u.hostBuckets[h.ID] = u.bucket(u.hostBuckets[h.ID], from, to, flops)
	}
}

// bucket distributes amount over (from, to] proportionally to bucket
// overlap and returns the grown series, so bucket sums equal the totals.
// Zero-length segments (a flow's final remainder completing exactly at its
// last sync date) land entirely in from's bucket.
func (u *Usage) bucket(buckets []float64, from, to core.Time, amount float64) []float64 {
	lo := int(from / u.width)
	hi := int(to / u.width)
	if need := hi + 1; len(buckets) < need {
		grown := make([]float64, need)
		copy(grown, buckets)
		buckets = grown
	}
	if lo == hi || to <= from {
		buckets[hi] += amount
		return buckets
	}
	rate := amount / float64(to-from)
	for b := lo; b <= hi; b++ {
		bStart, bEnd := core.Time(b)*u.width, core.Time(b+1)*u.width
		if bStart < from {
			bStart = from
		}
		if bEnd > to {
			bEnd = to
		}
		buckets[b] += float64(rate * float64(bEnd-bStart))
	}
	return buckets
}

// linkUsage is one link's aggregate load over the observed span.
type linkUsage struct {
	Link  *platform.Link
	Bytes float64
	// Utilization is Bytes / (Bandwidth * span): the fraction of the link's
	// capacity the observed traffic consumed. On Shared links it cannot
	// exceed 1 (the LMM never over-commits a constraint) — the conservation
	// test pins this; FatPipe links can exceed it by design.
	Utilization float64
}

// topLinks returns the n busiest links by byte total, descending, ties
// broken by link ID for determinism. Links that carried nothing are
// omitted, so fewer than n entries may return.
func (u *Usage) topLinks(n int) []linkUsage {
	span := float64(u.spanEnd - u.spanStart)
	used := make([]linkUsage, 0, n)
	for id, bytes := range u.linkBytes {
		if bytes == 0 {
			continue
		}
		lu := linkUsage{Link: u.plat.LinkByID(id), Bytes: bytes}
		if span > 0 {
			lu.Utilization = bytes / (lu.Link.Bandwidth * span)
		}
		used = append(used, lu)
	}
	sort.Slice(used, func(i, j int) bool {
		if used[i].Bytes != used[j].Bytes {
			return used[i].Bytes > used[j].Bytes
		}
		return used[i].Link.ID < used[j].Link.ID
	})
	if len(used) > n {
		used = used[:n]
	}
	return used
}

// HotSpots renders the top-n link report: one line per link with its byte
// total and utilization over the observed span. Link names materialize here
// — on the reporting path, never during the simulation.
func (u *Usage) HotSpots(n int) string {
	top := u.topLinks(n)
	if len(top) == 0 {
		return "no link traffic recorded\n"
	}
	width := 0
	for _, lu := range top {
		if l := len(lu.Link.Name()); l > width {
			width = l
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "top %d links by bytes carried (span %.6gs):\n", len(top), float64(u.spanEnd-u.spanStart))
	for _, lu := range top {
		fmt.Fprintf(&b, "  %-*s %14.0f B  util %5.1f%%\n", width+1, lu.Link.Name(), lu.Bytes, 100*lu.Utilization)
	}
	return b.String()
}

// timelineJSON is the serialized form: bucket width in seconds, one series
// per recorded resource with its dense bucket array.
type timelineJSON struct {
	BucketWidth float64      `json:"bucket_width"`
	Links       []seriesJSON `json:"links,omitempty"`
	Hosts       []seriesJSON `json:"hosts,omitempty"`
}

type seriesJSON struct {
	Name    string    `json:"name"`
	Buckets []float64 `json:"buckets"`
}

// seriesOf lists the recorded series in ID order; names materialize only
// here.
func seriesOf(buckets [][]float64, name func(id int) string) []seriesJSON {
	var out []seriesJSON
	for id, b := range buckets {
		if b != nil {
			out = append(out, seriesJSON{Name: name(id), Buckets: b})
		}
	}
	return out
}

// WriteJSON serializes the bucketed timeline. Resources are sorted by ID
// and names are materialized lazily, so writing is the only naming cost.
// A totals-only recorder (width 0) has no timeline and returns an error.
func (u *Usage) WriteJSON(w io.Writer) error {
	if u.width == 0 {
		return errors.New("obs: usage recorder keeps totals only, no timeline buckets")
	}
	doc := timelineJSON{
		BucketWidth: float64(u.width),
		Links:       seriesOf(u.linkBuckets, func(id int) string { return u.plat.LinkByID(id).Name() }),
		Hosts:       seriesOf(u.hostBuckets, func(id int) string { return u.plat.HostByID(id).Name() }),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}
