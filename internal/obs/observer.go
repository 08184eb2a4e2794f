package obs

import (
	"fmt"
	"sort"
	"strings"

	"smpigo/internal/core"
	"smpigo/internal/platform"
	"smpigo/internal/surf"
)

// Observer accumulates per-link byte totals and per-host flop totals from
// the drained-segment stream the surf models emit at their lazy sync points
// (see surf.UsageRecorder). Because every segment is an amount the model
// already drained — never re-derived — the per-link totals are conservative
// by construction: a flow of S bytes over a k-link route contributes exactly
// k*S bytes, no matter how many rate changes it lived through.
//
// Totals are indexed by resource ID, so an observer costs one float64 per
// link plus one per host and each record is two array adds — cheap enough to
// leave on for whole campaigns.
type Observer struct {
	plat      *platform.Platform
	linkBytes []float64
	hostFlops []float64

	// Observed span: the earliest segment start and latest segment end.
	// Utilization is bytes / (bandwidth * span).
	spanStart core.Time
	spanEnd   core.Time
	any       bool
}

// NewObserver creates an observer sized for plat's current hosts and links.
func NewObserver(plat *platform.Platform) *Observer {
	return &Observer{
		plat:      plat,
		linkBytes: make([]float64, len(plat.Links())),
		hostFlops: make([]float64, len(plat.Hosts())),
	}
}

var _ surf.UsageRecorder = (*Observer)(nil)

func (o *Observer) span(from, to core.Time) {
	if !o.any || from < o.spanStart {
		o.spanStart = from
	}
	if !o.any || to > o.spanEnd {
		o.spanEnd = to
	}
	o.any = true
}

// RecordLink implements surf.UsageRecorder.
func (o *Observer) RecordLink(l *platform.Link, from, to core.Time, bytes float64) {
	o.linkBytes[l.ID] += bytes
	o.span(from, to)
}

// RecordHost implements surf.UsageRecorder.
func (o *Observer) RecordHost(h *platform.Host, from, to core.Time, flops float64) {
	o.hostFlops[h.ID] += flops
	o.span(from, to)
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
func (o *Observer) topLinks(n int) []linkUsage {
	span := float64(o.spanEnd - o.spanStart)
	used := make([]linkUsage, 0, n)
	for id, bytes := range o.linkBytes {
		if bytes == 0 {
			continue
		}
		u := linkUsage{Link: o.plat.LinkByID(id), Bytes: bytes}
		if span > 0 {
			u.Utilization = bytes / (u.Link.Bandwidth * span)
		}
		used = append(used, u)
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
func (o *Observer) HotSpots(n int) string {
	top := o.topLinks(n)
	if len(top) == 0 {
		return "no link traffic recorded\n"
	}
	width := 0
	for _, u := range top {
		if l := len(u.Link.Name()); l > width {
			width = l
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "top %d links by bytes carried (span %.6gs):\n", len(top), float64(o.spanEnd-o.spanStart))
	for _, u := range top {
		fmt.Fprintf(&b, "  %-*s %14.0f B  util %5.1f%%\n", width+1, u.Link.Name(), u.Bytes, 100*u.Utilization)
	}
	return b.String()
}

// Multi fans one drained-segment stream out to several recorders (e.g. an
// Observer plus a Timeline). nil entries are skipped; with zero or one
// non-nil recorder it returns that recorder directly, keeping the common
// cases free of indirection.
func Multi(rs ...surf.UsageRecorder) surf.UsageRecorder {
	live := make([]surf.UsageRecorder, 0, len(rs))
	for _, r := range rs {
		if r != nil {
			live = append(live, r)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multi(live)
}

type multi []surf.UsageRecorder

func (m multi) RecordLink(l *platform.Link, from, to core.Time, bytes float64) {
	for _, r := range m {
		r.RecordLink(l, from, to, bytes)
	}
}

func (m multi) RecordHost(h *platform.Host, from, to core.Time, flops float64) {
	for _, r := range m {
		r.RecordHost(h, from, to, flops)
	}
}
