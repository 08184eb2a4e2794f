package dynamics

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"smpigo/internal/core"
	"smpigo/internal/lmm"
	"smpigo/internal/platform"
	"smpigo/internal/platform/platformtest"
	"smpigo/internal/simix"
	"smpigo/internal/surf"
)

func TestParseAndCanonicalString(t *testing.T) {
	cases := []struct {
		in, canon string
	}{
		{"@2ms link fattree64-l3-* degrade 0.25", "@0.002s link fattree64-l3-* scale 0.25"},
		{"@8ms link fattree64-l3-* restore", "@0.008s link fattree64-l3-* restore"},
		{"@0s host griffon-5 scale 0.5", "@0s host griffon-5 scale 0.5"},
		{"@1ms host torus64-* fail", "@0.001s host torus64-* fail"},
		{"@500us flow 0->12 4MiB every 1ms x8", "@0.0005s flow 0->12 4194304B every 0.001s x8"},
		{"@0s flow 3->4 1kB", "@0s flow 3->4 1000B"},
		{"@2ms link a-* scale 0.5; @4ms link a-* restore", "@0.002s link a-* scale 0.5; @0.004s link a-* restore"},
	}
	for _, c := range cases {
		s, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got := s.String(); got != c.canon {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, c.canon)
		}
		// The canonical form is a fixed point.
		again, err := Parse(s.String())
		if err != nil {
			t.Errorf("re-parsing %q: %v", s.String(), err)
			continue
		}
		if !reflect.DeepEqual(again, s) {
			t.Errorf("canonical round-trip changed the schedule: %+v vs %+v", again, s)
		}
	}
}

func TestParseEmptyAndNone(t *testing.T) {
	for _, in := range []string{"", "  ", "none"} {
		s, err := Parse(in)
		if err != nil || s != nil {
			t.Errorf("Parse(%q) = (%v, %v), want (nil, nil)", in, s, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"@2ms",                           // no kind
		"@wat link a-* restore",          // bad date
		"@2ms switch a-* restore",        // unknown kind
		"@2ms link a-* explode",          // unknown verb
		"@2ms link a-* scale",            // missing factor
		"@2ms link a-* scale -1",         // negative factor
		"@2ms link a-* scale 0.5 extra",  // trailing junk
		"@2ms link a-* restore 1",        // restore takes no argument
		"@2ms link [a-* restore",         // malformed glob
		"@2ms flow 0-12 1kB",             // bad endpoints
		"@2ms flow 0->0 1kB",             // self-flow
		"@2ms flow 0->1 0B",              // zero bytes
		"@2ms flow 0->1 1kB every 1ms",   // repeat without count
		"@2ms flow 0->1 1kB every 0s x4", // repeat without period
		"@2ms flow 0->1 1kB x4",          // count without every
		"@-2ms link a-* restore",         // negative date
	}
	for _, in := range bad {
		if s, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) accepted: %+v", in, s)
		}
	}
}

// FuzzParse feeds arbitrary strings to the schedule grammar: no input
// panics, and whatever Parse accepts prints as grammar that re-parses to
// the same print. The last two seeds and the committed corpus are JSON
// schedules, which Parse refuses (see TestJSONIsRefused).
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"@2ms link fattree64-l3-* degrade 0.25; @8ms link fattree64-l3-* restore",
		"@0s host griffon-5 scale 0.5; @1ms host torus64-* fail",
		"@500us flow 0->12 4MiB every 1ms x8; @0s flow 3->4 1kB",
		"@2ms link [a-* restore",
		"@2ms flow 0->1 1kB every 0s x4",
		"none",
		`{"events": [{"at": 0.002, "kind": "link", "target": "a-*", "factor": 0.25}]}`,
		`[{"at": 0.001, "kind": "flow", "src": 0, "dst": 1, "bytes": 4194304, "every": 0.001, "count": 3}]`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := Parse(in)
		if err != nil || s == nil {
			return
		}
		canon := s.String()
		back, err := Parse(canon)
		if err != nil {
			t.Fatalf("%q was accepted, but its canonical form %q does not parse: %v", in, canon, err)
		}
		if again := back.String(); again != canon {
			t.Fatalf("%q: canonical form %q re-parses as %q", in, canon, again)
		}
	})
}

func TestLoadFromFile(t *testing.T) {
	dir := t.TempDir()
	grammar := filepath.Join(dir, "sched.dyn")
	if err := os.WriteFile(grammar, []byte("@2ms link a-* scale 0.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Load(grammar)
	if err != nil || len(s.Events) != 1 {
		t.Fatalf("Load(grammar file) = (%+v, %v)", s, err)
	}
	if _, err := Load(filepath.Join(dir, "missing")); err == nil {
		t.Error("Load(missing file) should fail")
	}
}

// TestJSONIsRefused checks that a schedule spelled as JSON, the dialect
// the grammar replaced, is refused inline, from a file, and as each
// committed fuzz corpus entry, with an error that names the grammar.
func TestJSONIsRefused(t *testing.T) {
	docs := []string{
		`{"events":[{"at":0.002,"kind":"link","target":"a-*","factor":0.5}]}`,
		`[{"at": 0.001, "kind": "flow", "src": 0, "dst": 1, "bytes": 4194304}]`,
	}
	corpus, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzParse", "*"))
	if err != nil || len(corpus) != 3 {
		t.Fatalf("corpus %v, %v: want 3 files", corpus, err)
	}
	for _, name := range corpus {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		_, arg, _ := strings.Cut(strings.TrimSpace(string(data)), "\n")
		doc, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(arg, "string("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		docs = append(docs, doc)
	}
	dir := t.TempDir()
	for i, doc := range docs {
		if s, err := Parse(doc); err == nil {
			t.Errorf("Parse(%q) accepted: %+v", doc, s)
		}
		if s, err := Load(doc); err == nil || !strings.Contains(err.Error(), "@<date> <kind>") {
			t.Errorf("Load(%q) = (%+v, %v), want an error naming the grammar", doc, s, err)
		}
		file := filepath.Join(dir, fmt.Sprintf("sched%d.json", i))
		if err := os.WriteFile(file, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := Load(file); err == nil || !strings.Contains(err.Error(), "@<date> <kind>") {
			t.Errorf("Load(file of %q) = (%+v, %v), want an error naming the grammar", doc, s, err)
		}
	}
}

// dumbbell builds two hosts joined by one shared link pair.
func dumbbell(bw float64) (*platform.Platform, *platform.Link) {
	f := platformtest.New("dumb")
	a, b := f.Platform.NewHost(1e9), f.Platform.NewHost(1e9)
	up := f.Link("dumb-up", bw, 1e-3, lmm.Shared)
	f.Route(a, b, up, f.Link("dumb-down", bw, 1e-3, lmm.Shared))
	return f.Platform, up
}

// TestArmDegradeAnalytic drives a transfer through an armed schedule and
// checks the completion date against the closed form.
func TestArmDegradeAnalytic(t *testing.T) {
	const bw = 1e6
	p, _ := dumbbell(bw)
	k := simix.New()
	net := surf.NewNetwork(k, surf.Ideal())
	k.AddModel(net)

	s, err := Parse("@2.002s link dumb-up scale 0.5")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Arm(k, p, net, nil); err != nil {
		t.Fatal(err)
	}
	var done core.Time
	k.Spawn("sender", func(pr *simix.Proc) {
		f := simix.NewFuture()
		net.StartFlow(p.Route(p.HostByID(0), p.HostByID(1)), 8e6, f)
		pr.Wait(f)
		done = pr.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 2ms latency, 2 s at 1e6 (2e6 bytes), then 6e6 bytes at 5e5 = 12 s.
	want := core.Time(0.002 + 2 + 12)
	if math.Abs(float64(done-want)) > 1e-9 {
		t.Errorf("completion at %v, want %v", done, want)
	}
}

// TestArmFlowInjection checks repeated background flows contend with the
// workload: a foreground transfer sharing the link with one injected flow
// runs at half rate while the injection is live.
func TestArmFlowInjection(t *testing.T) {
	const bw = 1e6
	p, _ := dumbbell(bw)
	k := simix.New()
	net := surf.NewNetwork(k, surf.Ideal())
	k.AddModel(net)

	// Inject 3 x 1e6 bytes back to back; each takes >= 1 s of link time.
	s, err := Parse("@0s flow 0->1 1MB every 1.5s x3")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Arm(k, p, net, nil); err != nil {
		t.Fatal(err)
	}
	var elapsed core.Duration
	k.Spawn("fg", func(pr *simix.Proc) {
		start := pr.Now()
		f := simix.NewFuture()
		net.StartFlow(p.Route(p.HostByID(0), p.HostByID(1)), 4e6, f)
		pr.Wait(f)
		elapsed = core.Duration(pr.Now() - start)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// With injections the foreground must be measurably slower than alone
	// (4 s + latency) but finish within the total offered load (7e6 bytes).
	alone := core.Duration(0.002 + 4)
	if elapsed <= alone+1 {
		t.Errorf("foreground took %v, expected contention well above %v", elapsed, alone)
	}
	if limit := core.Duration(0.002 + 7 + 1); elapsed > limit {
		t.Errorf("foreground took %v, beyond total offered load %v", elapsed, limit)
	}
}

// TestArmHostSlowdown checks host events through the CPU model.
func TestArmHostSlowdown(t *testing.T) {
	p := platform.New("m")
	p.NewHost(1e9)
	k := simix.New()
	cpu := surf.NewCPU(k)
	k.AddModel(cpu)
	s, err := Parse("@1s host m-0 scale 0.25")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Arm(k, p, nil, cpu); err != nil {
		t.Fatal(err)
	}
	var done core.Time
	k.Spawn("w", func(pr *simix.Proc) {
		pr.Wait(cpu.Execute(p.HostByID(0), 2e9))
		done = pr.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 1 s at 1e9 f/s, then 1e9 flops at 0.25e9 = 4 s.
	if want := core.Time(5); math.Abs(float64(done-want)) > 1e-9 {
		t.Errorf("completion at %v, want %v", done, want)
	}
}

func TestArmErrors(t *testing.T) {
	p, _ := dumbbell(1e6)
	k := simix.New()
	net := surf.NewNetwork(k, surf.Ideal())
	cpu := surf.NewCPU(k)

	mustParse := func(in string) *Schedule {
		s, err := Parse(in)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := []struct {
		name string
		s    *Schedule
		net  *surf.Network
		cpu  *surf.CPU
	}{
		{"no matching link", mustParse("@0s link nosuch-* fail"), net, cpu},
		{"no matching host", mustParse("@0s host nosuch-* fail"), net, cpu},
		{"link event without network", mustParse("@0s link dumb-up fail"), nil, cpu},
		{"host event without cpu", mustParse("@0s host dumb-0 fail"), net, nil},
		{"flow out of range", mustParse("@0s flow 0->7 1kB"), net, cpu},
		{"flow without network", mustParse("@0s flow 0->1 1kB"), nil, cpu},
	}
	for _, c := range cases {
		if err := c.s.Arm(k, p, c.net, c.cpu); err == nil {
			t.Errorf("%s: Arm accepted", c.name)
		}
	}
	blind := surf.NewNetwork(simix.New(), surf.Ideal())
	blind.Contention = false
	if err := mustParse("@0s link dumb-up scale 0.5").Arm(k, p, blind, nil); err == nil {
		t.Error("link event on a contention-blind network should fail to arm")
	}
	if err := mustParse("@0s flow 0->1 1kB").Arm(k, p, blind, nil); err == nil {
		t.Error("flow event on a contention-blind network should fail to arm")
	}
}
