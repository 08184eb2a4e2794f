// Package dynamics turns a static platform into a time-varying one: a
// Schedule is a deterministic list of platform events — degrade/restore link
// bandwidth, slow/fail hosts, inject background-traffic flows — fired
// through simix timers on the existing event path. The simulation's resource
// models mutate their own LMM capacities (surf.Network.SetLinkBandwidth,
// surf.CPU.SetHostSpeed); the platform itself is never touched, so one
// platform instance can back many concurrent simulations with different
// schedules and the nominal description always survives for restore events.
//
// # Grammar
//
// A schedule is events separated by ";". Each event starts with an absolute
// simulated date (core.ParseDuration syntax) and names its kind:
//
//	@2ms   link fattree64-l3-* degrade 0.25   // spine at 25% of nominal
//	@8ms   link fattree64-l3-* restore        // back to nominal
//	@0s    host griffon-5 scale 0.5           // half-speed node
//	@1ms   host torus64-* fail                // capacity 0: loud failure
//	@500us flow 0->12 4MiB every 1ms x8       // background traffic
//
// Link and host selectors are path.Match globs over resource names; "scale"
// and "degrade" are synonyms taking a capacity multiplier relative to the
// nominal platform value, "restore" is scale 1, "fail" is scale 0. Flow
// events inject size bytes from one host ID to another, optionally repeated
// count times at a fixed period. The grammar is comma-free, so schedules
// survive comma-separated campaign flag lists; String renders the canonical,
// re-parseable spelling used in campaign job IDs.
//
// The grammar is the only spelling: Load reads it inline ("@..." on the
// command line) or from a file holding it, for schedules too long to inline.
// An uneven machine is a schedule too: "@0s host <glob> scale f" and
// "@0s link <glob> scale f" set capacities before any rank starts.
//
// # Determinism and exactness
//
// Arm resolves every selector eagerly (in event order, matching links and
// hosts in ID order) and registers plain kernel timers, so firing order
// depends only on the schedule — two runs of the same (platform, schedule,
// workload) are bit-identical, at any campaign parallelism. Capacity changes
// take effect exactly at their date: the models drain every affected action
// at its outgoing rate before the new capacity applies (see
// surf.Network.SetLinkBandwidth), so byte/flop integrals and observability
// accounting never smear across a rate change. Events dated after the last
// actor exits never fire (the kernel stops with the workload).
package dynamics

import (
	"fmt"
	"math"
	"os"
	"path"
	"strconv"
	"strings"
	"unicode"

	"smpigo/internal/core"
	"smpigo/internal/platform"
	"smpigo/internal/simix"
	"smpigo/internal/surf"
)

// Kind discriminates the event types of a schedule.
type Kind string

const (
	// kindLink scales the capacity of every link matching Target to
	// Factor times its nominal bandwidth.
	kindLink Kind = "link"
	// kindHost scales the compute capacity of every host matching Target to
	// Factor times its nominal speed.
	kindHost Kind = "host"
	// kindFlow injects a background flow of Bytes from host Src to host
	// Dst, repeated Count times every Every.
	kindFlow Kind = "flow"
)

// Event is one scheduled platform change. The zero value is invalid; build
// events through Parse or populate every field the Kind requires.
type Event struct {
	At   core.Time
	Kind Kind

	// Target is a path.Match glob over link or host names (link/host kinds).
	Target string
	// Factor is the capacity multiplier relative to the nominal platform
	// value: 1 restores, 0 fails (link/host kinds).
	Factor float64

	// Src/Dst/Bytes describe an injected flow; Every and Count repeat it
	// (Count < 2 means a single injection).
	Src   int
	Dst   int
	Bytes int64
	Every core.Duration
	Count int
}

// validate reports the first problem with the event.
func (e Event) validate() error {
	if e.At < 0 || math.IsNaN(float64(e.At)) {
		return fmt.Errorf("dynamics: event date %v before time zero", e.At)
	}
	switch e.Kind {
	case kindLink, kindHost:
		if e.Target == "" {
			return fmt.Errorf("dynamics: %s event without a target pattern", e.Kind)
		}
		// The grammar splits events at ";" and fields at spaces: a target
		// holding either would not survive String.
		if strings.IndexFunc(e.Target, func(c rune) bool { return c == ';' || unicode.IsSpace(c) }) >= 0 {
			return fmt.Errorf("dynamics: %s pattern %q holds a space or \";\"", e.Kind, e.Target)
		}
		if _, err := path.Match(e.Target, ""); err != nil {
			return fmt.Errorf("dynamics: bad %s pattern %q: %w", e.Kind, e.Target, err)
		}
		if e.Factor < 0 || math.IsNaN(e.Factor) || math.IsInf(e.Factor, 0) {
			return fmt.Errorf("dynamics: invalid capacity factor %v for %s %q", e.Factor, e.Kind, e.Target)
		}
	case kindFlow:
		if e.Src < 0 || e.Dst < 0 || e.Src == e.Dst {
			return fmt.Errorf("dynamics: flow endpoints %d->%d invalid", e.Src, e.Dst)
		}
		if e.Bytes <= 0 {
			return fmt.Errorf("dynamics: flow %d->%d with %d bytes", e.Src, e.Dst, e.Bytes)
		}
		if e.Every < 0 {
			return fmt.Errorf("dynamics: flow period %v negative", e.Every)
		}
		if e.Count > 1 && e.Every <= 0 {
			return fmt.Errorf("dynamics: flow repeated x%d needs a positive period", e.Count)
		}
	default:
		return fmt.Errorf("dynamics: unknown event kind %q", e.Kind)
	}
	return nil
}

// String renders the event in the canonical grammar spelling.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "@%gs %s ", float64(e.At), e.Kind)
	switch e.Kind {
	case kindFlow:
		fmt.Fprintf(&b, "%d->%d %dB", e.Src, e.Dst, e.Bytes)
		if e.Count > 1 {
			fmt.Fprintf(&b, " every %gs x%d", float64(e.Every), e.Count)
		}
	default:
		b.WriteString(e.Target)
		switch e.Factor {
		case 1:
			b.WriteString(" restore")
		case 0:
			b.WriteString(" fail")
		default:
			fmt.Fprintf(&b, " scale %g", e.Factor)
		}
	}
	return b.String()
}

// Schedule is a deterministic list of platform events, fired in date order
// (ties in list order) once armed on a kernel.
type Schedule struct {
	Events []Event
}

// String renders the canonical, re-parseable grammar form — the spelling
// campaign job IDs and fingerprints are built from.
func (s *Schedule) String() string {
	parts := make([]string, len(s.Events))
	for i, e := range s.Events {
		parts[i] = e.String()
	}
	return strings.Join(parts, "; ")
}

// validate reports the first problem with any event.
func (s *Schedule) validate() error {
	for i, e := range s.Events {
		if err := e.validate(); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	return nil
}

// Parse parses the compact grammar (see the package comment). The empty
// string and "none" parse to nil: no schedule.
func Parse(input string) (*Schedule, error) {
	trimmed := strings.TrimSpace(input)
	if trimmed == "" || trimmed == "none" {
		return nil, nil
	}
	s := &Schedule{}
	for _, part := range strings.Split(trimmed, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		e, err := parseEvent(part)
		if err != nil {
			return nil, err
		}
		s.Events = append(s.Events, e)
	}
	if len(s.Events) == 0 {
		return nil, fmt.Errorf("dynamics: schedule %q has no events", input)
	}
	return s, nil
}

func parseEvent(spec string) (Event, error) {
	var e Event
	fields := strings.Fields(spec)
	fail := func(format string, args ...any) (Event, error) {
		return e, fmt.Errorf("dynamics: event %q: %s", spec, fmt.Sprintf(format, args...))
	}
	if len(fields) < 3 || !strings.HasPrefix(fields[0], "@") {
		return fail("want \"@<time> <kind> ...\"")
	}
	at, err := core.ParseDuration(strings.TrimPrefix(fields[0], "@"))
	if err != nil {
		return fail("bad date: %v", err)
	}
	e.At = core.Time(at)
	e.Kind = Kind(fields[1])
	rest := fields[2:]
	switch e.Kind {
	case kindLink, kindHost:
		e.Target = rest[0]
		verb := ""
		if len(rest) > 1 {
			verb = rest[1]
		}
		switch verb {
		case "scale", "degrade":
			if len(rest) != 3 {
				return fail("%s needs exactly one factor", verb)
			}
			if e.Factor, err = strconv.ParseFloat(rest[2], 64); err != nil {
				return fail("bad factor %q: %v", rest[2], err)
			}
		case "restore":
			if len(rest) != 2 {
				return fail("restore takes no argument")
			}
			e.Factor = 1
		case "fail":
			if len(rest) != 2 {
				return fail("fail takes no argument")
			}
			e.Factor = 0
		default:
			return fail("unknown verb %q (want scale/degrade/restore/fail)", verb)
		}
	case kindFlow:
		src, dst, ok := strings.Cut(rest[0], "->")
		if !ok {
			return fail("flow endpoints %q: want <src>-><dst>", rest[0])
		}
		if e.Src, err = strconv.Atoi(src); err != nil {
			return fail("bad source host %q", src)
		}
		if e.Dst, err = strconv.Atoi(dst); err != nil {
			return fail("bad destination host %q", dst)
		}
		if len(rest) < 2 {
			return fail("flow needs a byte count")
		}
		if e.Bytes, err = core.ParseBytes(rest[1]); err != nil {
			return fail("bad byte count %q: %v", rest[1], err)
		}
		switch {
		case len(rest) == 2:
		case len(rest) == 5 && rest[2] == "every" && strings.HasPrefix(rest[4], "x"):
			if e.Every, err = core.ParseDuration(rest[3]); err != nil {
				return fail("bad period %q: %v", rest[3], err)
			}
			if e.Count, err = strconv.Atoi(strings.TrimPrefix(rest[4], "x")); err != nil || e.Count < 1 {
				return fail("bad repeat count %q", rest[4])
			}
		default:
			return fail("want \"flow <src>-><dst> <bytes> [every <period> x<count>]\"")
		}
	default:
		return fail("unknown kind %q (want link/host/flow)", fields[1])
	}
	if err := e.validate(); err != nil {
		return e, fmt.Errorf("dynamics: event %q: %w", spec, err)
	}
	return e, nil
}

// Load resolves a -dynamics argument: "" and "none" mean no schedule (nil),
// a "@"-prefixed string is inline grammar, and anything else names a file
// holding grammar.
func Load(arg string) (*Schedule, error) {
	trimmed := strings.TrimSpace(arg)
	switch {
	case trimmed == "" || trimmed == "none":
		return nil, nil
	case strings.HasPrefix(trimmed, "@"):
		return Parse(trimmed)
	}
	data, err := os.ReadFile(trimmed)
	if err != nil {
		return nil, fmt.Errorf("dynamics: %q is neither inline grammar (@<date> <kind> ...) nor a readable file: %w", arg, err)
	}
	content := strings.TrimSpace(string(data))
	if !strings.HasPrefix(content, "@") {
		return nil, fmt.Errorf("dynamics: file %q holds no schedule grammar: want events \"@<date> <kind> ...\" separated by \";\"", arg)
	}
	return Parse(content)
}

// CheckNetwork is the one rule of which model a platform event needs.
// Host events run on every backend: every backend computes on the surf CPU
// model. Link and flow events need the surf network model with contention,
// the one network that shares link capacities; contended says whether a
// run has it. A refusal names the first event that needs it.
func (s *Schedule) CheckNetwork(contended bool) error {
	if contended {
		return nil
	}
	for i, e := range s.Events {
		if e.Kind != kindHost {
			return fmt.Errorf("dynamics: event %d (%s) needs the surf network model with contention: link and flow events require the surf backend", i, e)
		}
	}
	return nil
}

// Arm resolves the schedule against plat and registers every event as a
// kernel timer. net is the run's surf network model, nil on the packet
// emulator, and cpu its CPU model; Arm fails loudly if an event needs a
// model the run lacks (see CheckNetwork). Selectors that match nothing are
// errors — a silently inert schedule would be indistinguishable from a
// typo.
func (s *Schedule) Arm(k *simix.Kernel, plat *platform.Platform, net *surf.Network, cpu *surf.CPU) error {
	if err := s.validate(); err != nil {
		return fmt.Errorf("dynamics: %w", err)
	}
	if err := s.CheckNetwork(net != nil && net.Contention); err != nil {
		return err
	}
	for i, e := range s.Events {
		e := e
		switch e.Kind {
		case kindLink:
			links := matchLinks(plat, e.Target)
			if len(links) == 0 {
				return fmt.Errorf("dynamics: event %d: pattern %q matches no link", i, e.Target)
			}
			armAt(k, e.At, func() {
				for _, l := range links {
					net.SetLinkBandwidth(l, e.Factor*l.Bandwidth)
				}
			})
		case kindHost:
			if cpu == nil {
				return fmt.Errorf("dynamics: event %d (%s) needs the surf CPU model", i, e)
			}
			hosts := matchHosts(plat, e.Target)
			if len(hosts) == 0 {
				return fmt.Errorf("dynamics: event %d: pattern %q matches no host", i, e.Target)
			}
			armAt(k, e.At, func() {
				for _, h := range hosts {
					cpu.SetHostSpeed(h, e.Factor*h.Speed)
				}
			})
		case kindFlow:
			if n := len(plat.Hosts()); e.Src >= n || e.Dst >= n {
				return fmt.Errorf("dynamics: event %d: flow %d->%d outside the %d-host platform", i, e.Src, e.Dst, n)
			}
			route := plat.Route(plat.HostByID(e.Src), plat.HostByID(e.Dst))
			count := e.Count
			if count < 1 {
				count = 1
			}
			for rep := 0; rep < count; rep++ {
				armAt(k, e.At+core.Time(core.Time(rep)*core.Time(e.Every)), func() {
					// Nobody waits on injected background traffic; the flow's
					// bytes still land in the sharing system and the usage
					// accounting like any first-class transfer.
					net.StartFlow(route, e.Bytes, simix.NewFuture())
				})
			}
		}
	}
	return nil
}

// armAt registers fn to run at date at through the kernel timer queue.
// Same-date timers fire in registration order (the timer heap is FIFO on
// ties), so the schedule's list order is the tiebreak.
func armAt(k *simix.Kernel, at core.Time, fn func()) {
	f := simix.NewFuture()
	k.OnFulfill(f, fn)
	k.FulfillAt(f, at)
}

// matchLinks returns the links whose names match the glob, in ID order.
func matchLinks(plat *platform.Platform, pattern string) []*platform.Link {
	var out []*platform.Link
	for _, l := range plat.Links() {
		if ok, _ := path.Match(pattern, l.Name()); ok {
			out = append(out, l)
		}
	}
	return out
}

// matchHosts returns the hosts whose names match the glob, in ID order.
func matchHosts(plat *platform.Platform, pattern string) []*platform.Host {
	var out []*platform.Host
	for _, h := range plat.Hosts() {
		if ok, _ := path.Match(pattern, h.Name()); ok {
			out = append(out, h)
		}
	}
	return out
}
