package obs

// White-box unit tests for the usage recorder's totals and bucketing, and
// for counter formatting. The cross-package conservation suite
// (conservation_test.go) covers the same machinery end-to-end against live
// simulations; these pin the arithmetic in isolation.

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"smpigo/internal/core"
	"smpigo/internal/lmm"
	"smpigo/internal/platform"
)

func testPlatform(t *testing.T) *platform.Platform {
	t.Helper()
	p := platform.New("t")
	p.SetLinkNamer(func(id int) string { return "l" + strconv.Itoa(id) })
	for i := 0; i < 3; i++ {
		p.NewHost(1e9)
	}
	p.NewLink(1e9, 0, lmm.Shared)
	p.NewLink(2e9, 0, lmm.Shared)
	p.NewLink(1e9, 0, lmm.FatPipe)
	return p
}

func TestUsageTotalsAndSpan(t *testing.T) {
	p := testPlatform(t)
	o := NewUsage(p, 0)
	if o.any {
		t.Error("fresh recorder claims a span")
	}
	l0, l1 := p.LinkByID(0), p.LinkByID(1)
	o.RecordLink(l0, 1, 2, 100)
	o.RecordLink(l0, 2, 3, 50)
	o.RecordLink(l1, 0.5, 1.5, 300)
	o.RecordHost(p.HostByID(2), 1, 4, 1e6)
	if got := o.linkBytes[l0.ID]; got != 150 {
		t.Errorf("l0 bytes = %v, want 150", got)
	}
	if got := o.hostFlops[p.HostByID(2).ID]; got != 1e6 {
		t.Errorf("h2 flops = %v, want 1e6", got)
	}
	start, end, ok := o.spanStart, o.spanEnd, o.any
	if !ok || start != 0.5 || end != 4 {
		t.Errorf("span = [%v, %v] ok=%v, want [0.5, 4]", start, end, ok)
	}
	// Width 0 keeps totals only: no buckets, and no timeline to write.
	if o.linkBuckets != nil || o.hostBuckets != nil {
		t.Error("totals-only recorder allocated buckets")
	}
	var buf bytes.Buffer
	if err := o.WriteJSON(&buf); err == nil || buf.Len() > 0 {
		t.Errorf("WriteJSON on a totals-only recorder: err %v, wrote %q", err, buf.String())
	}
}

func TestTopLinksOrderingAndUtilization(t *testing.T) {
	p := testPlatform(t)
	o := NewUsage(p, 0)
	// l1 and l2 tie on bytes (ID breaks the tie); l0 carries less and a
	// fourth candidate slot stays empty because only three links exist.
	o.RecordLink(p.LinkByID(2), 0, 1, 500)
	o.RecordLink(p.LinkByID(1), 0, 1, 500)
	o.RecordLink(p.LinkByID(0), 0, 2, 400)
	top := o.topLinks(4)
	if len(top) != 3 {
		t.Fatalf("got %d links, want 3", len(top))
	}
	wantIDs := []int{1, 2, 0}
	for i, u := range top {
		if u.Link.ID != wantIDs[i] {
			t.Errorf("top[%d] = link %d, want %d", i, u.Link.ID, wantIDs[i])
		}
	}
	// Span is [0, 2]; l1 has 2 GB/s capacity, so 500 B over 2 s is
	// 500 / (2e9 * 2) of capacity.
	if want := 500 / (2e9 * 2.0); math.Abs(top[0].Utilization-want) > 1e-15 {
		t.Errorf("l1 utilization = %v, want %v", top[0].Utilization, want)
	}
	if got := o.topLinks(1); len(got) != 1 || got[0].Link.ID != 1 {
		t.Errorf("topLinks(1) = %v", got)
	}
}

func TestHotSpotsEmpty(t *testing.T) {
	o := NewUsage(testPlatform(t), 0)
	if got := o.HotSpots(5); !strings.Contains(got, "no link traffic") {
		t.Errorf("empty report = %q", got)
	}
}

func TestTimelineBucketDistribution(t *testing.T) {
	p := testPlatform(t)
	u := NewUsage(p, 1) // 1-second buckets
	l := p.LinkByID(0)
	// A segment spanning (0.5, 2.5] splits 25% / 50% / 25%.
	u.RecordLink(l, 0.5, 2.5, 400)
	got := u.linkBuckets[0]
	want := []float64{100, 200, 100}
	if len(got) != len(want) {
		t.Fatalf("buckets = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("bucket %d = %v, want %v", i, got[i], want[i])
		}
	}
	// A zero-length segment (final remainder at the last sync date) lands
	// entirely in its bucket.
	u.RecordLink(l, 2, 2, 60)
	if got := u.linkBuckets[0][2]; math.Abs(got-160) > 1e-9 {
		t.Errorf("bucket 2 after zero-length add = %v, want 160", got)
	}
	// Bucketing leaves the running totals as a totals-only recorder keeps them.
	if got := u.linkBytes[0]; got != 460 {
		t.Errorf("l0 total = %v, want 460", got)
	}
	// Host series are independent.
	u.RecordHost(p.HostByID(1), 0, 1, 7)
	if got := u.hostBuckets[1]; len(got) != 2 || got[0] != 7 {
		t.Errorf("host buckets = %v", got)
	}
	if u.linkBuckets[1] != nil || u.hostBuckets[0] != nil {
		t.Error("unrecorded resources hold buckets")
	}
}

func TestTimelineRejectsBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic on negative width")
		}
	}()
	NewUsage(testPlatform(t), -1)
}

func TestStatsFlatAndFormat(t *testing.T) {
	var s Stats
	s.Net.Started = 3
	s.NetLMM.MaxComponentVars = 9
	s.Routes = 12
	flat := s.Flat()
	if flat["net.flows"] != 3 || flat["lmm.net.component_vars.max"] != 9 || flat["routes"] != 12 {
		t.Errorf("Flat = %v", flat)
	}
	nz := NonZero(flat)
	if len(nz) != 3 {
		t.Errorf("NonZero kept %d keys, want 3: %v", len(nz), nz)
	}
	report := s.Report()
	if strings.Contains(report, "cpu.tasks") {
		t.Error("report includes zero-valued counters")
	}
	lines := strings.Split(strings.TrimSuffix(report, "\n"), "\n")
	if len(lines) != 3 {
		t.Errorf("report has %d lines, want 3:\n%s", len(lines), report)
	}
	// Keys sort lexically, so lmm.* precedes net.* precedes routes.
	if !strings.HasPrefix(lines[0], "lmm.net.component_vars.max") ||
		!strings.HasPrefix(lines[1], "net.flows") ||
		!strings.HasPrefix(lines[2], "routes") {
		t.Errorf("report order wrong:\n%s", report)
	}
	if FormatFlat(nil) != "" {
		t.Error("FormatFlat(nil) should be empty")
	}
}

// TestTimelineWidthType pins that bucket width is a core.Duration in seconds:
// a 100µs width buckets a 250µs segment across three bins.
func TestTimelineWidthType(t *testing.T) {
	p := testPlatform(t)
	u := NewUsage(p, core.Duration(100e-6))
	u.RecordLink(p.LinkByID(0), 0, 250e-6, 250)
	got := u.linkBuckets[0]
	if len(got) != 3 || math.Abs(got[0]-100) > 1e-9 || math.Abs(got[2]-50) > 1e-9 {
		t.Errorf("buckets = %v, want [100 100 50]", got)
	}
}
