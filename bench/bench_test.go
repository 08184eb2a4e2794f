package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuantilesAndTail(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(sortedCopy(xs), 0.25); got != 2 {
		t.Errorf("q1 = %v, want 2", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {39, 50}, {40, 75}, {100, 90}, {200, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25]: spread 5.5/5.5.
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := spread(ten); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	// statistics.quantiles([10, 11, 13], n=4) = [10, 11, 13].
	if got := spread([]float64{13, 10, 11}); math.Abs(got-3.0/11) > 1e-12 {
		t.Errorf("spread(10,11,13) = %v, want %v", got, 3.0/11)
	}
}

func TestCPUShares(t *testing.T) {
	samples := []stackSample{
		// An allocation under smpi's deliver goes to smpi, not to the runtime.
		{[]string{"runtime.mallocgc", "runtime.makeslice", "smpigo/internal/smpi.(*World).deliver", "smpigo/internal/experiments.runAlltoall.func1", "smpigo/internal/simix.(*Kernel).Spawn.func1"}, 30},
		// The deepest program frame wins: lmm under surf under simix.
		{[]string{"smpigo/internal/lmm.(*System).Solve", "smpigo/internal/surf.(*Network).NextEvent", "smpigo/internal/simix.(*Kernel).Run"}, 20},
		// A sub-package counts for its parent directory.
		{[]string{"smpigo/internal/surf/actionheap.(*Heap).Push", "smpigo/internal/emu.(*Net).Transfer"}, 10},
		// A package without a row of its own.
		{[]string{"smpigo/internal/skampi.PingPong"}, 5},
		// The benchmark's own frames.
		{[]string{"encoding/json.Unmarshal", "main.(*serviceRunner).serve"}, 5},
		// Runtime-only stacks split into collector and the rest.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, 20},
		{[]string{"runtime.futex", "runtime.schedule", "runtime.mcall"}, 10},
	}
	shares := cpuShares(samples)
	want := map[string]float64{"smpi": 0.30, "lmm": 0.20, "surf": 0.10, "internal_other": 0.05, "bench": 0.05, "runtime_gc": 0.20, "runtime_other": 0.10}
	var sum float64
	for _, l := range ledgerLayers {
		sum += shares[l]
		if math.Abs(shares[l]-want[l]) > 1e-12 {
			t.Errorf("share %s = %v, want %v", l, shares[l], want[l])
		}
	}
	if len(shares) != len(ledgerLayers) || math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares %v sum to %v over %d layers, want 1 over %d", shares, sum, len(shares), len(ledgerLayers))
	}
}

// TestParseProfile encodes a two-sample pprof profile by hand (packed and
// unpacked repeated fields) and reads it back.
func TestParseProfile(t *testing.T) {
	varint := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	field := func(num int, body []byte) []byte { // length-delimited
		return append(append(varint(uint64(num)<<3|2), varint(uint64(len(body)))...), body...)
	}
	scalar := func(num int, v uint64) []byte { return append(varint(uint64(num)<<3), varint(v)...) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

	strs := []string{"", "samples", "count", "cpu", "nanoseconds", "smpigo/internal/lmm.(*System).Solve", "smpigo/internal/simix.(*Kernel).Run", "runtime.gcBgMarkWorker"}
	var prof []byte
	// Sample 1: packed location ids [1, 2], packed values [3, 30000000].
	prof = append(prof, field(2, cat(field(1, cat(varint(1), varint(2))), field(2, cat(varint(3), varint(30000000)))))...)
	// Sample 2: unpacked location id 3, unpacked values.
	prof = append(prof, field(2, cat(scalar(1, 3), scalar(2, 1), scalar(2, 10000000)))...)
	for id, fn := range map[uint64]uint64{1: 1, 2: 2, 3: 3} {
		prof = append(prof, field(4, cat(scalar(1, id), scalar(3, 0x1000*id), field(4, cat(scalar(1, fn), scalar(2, 42)))))...)
	}
	for id, name := range map[uint64]uint64{1: 5, 2: 6, 3: 7} {
		prof = append(prof, field(5, cat(scalar(1, id), scalar(2, name), scalar(3, name)))...)
	}
	for _, s := range strs {
		prof = append(prof, field(6, []byte(s))...)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	samples, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 {
		t.Fatalf("got %d samples, want 2", len(samples))
	}
	if got := strings.Join(samples[0].stack, " < "); got != strs[5]+" < "+strs[6] || samples[0].value != 30000000 {
		t.Errorf("sample 0 = %q x %d", got, samples[0].value)
	}
	shares := cpuShares(samples)
	if shares["lmm"] != 0.75 || shares["runtime_gc"] != 0.25 {
		t.Errorf("shares = %v, want lmm 0.75 and runtime_gc 0.25", shares)
	}
	if _, err := parseProfile(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("a truncated profile parsed without error")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "lower", better: "lower", bound: 0.10}
	higher := metricDef{name: "higher", better: "higher", bound: 0.10}
	steady := func(v float64) []float64 { return []float64{v * 0.99, v, v * 1.01} }
	for _, c := range []struct {
		name        string
		def         metricDef
		base, other []float64
		want        string
	}{
		{"within the bound", lower, steady(100), steady(105), "same"},
		{"slower by more than the bound", lower, steady(100), steady(115), "worse"},
		{"faster by more than the bound", lower, steady(100), steady(85), "better"},
		{"throughput down", higher, steady(100), steady(85), "worse"},
		{"throughput up", higher, steady(100), steady(115), "better"},
		{"the base's own spread exceeds the bound", lower, []float64{80, 100, 120}, steady(150), "unresolved"},
		{"the other's own spread exceeds the bound", lower, steady(100), []float64{120, 150, 180}, "unresolved"},
	} {
		if got, _, _ := verdict(c.def, c.base, c.other); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opMS float64, digest string) string {
		set := runSet{Seed: 1}
		for _, f := range []float64{0.99, 1, 1.01} {
			set.Runs = append(set.Runs, &runResult{Workload: "dt_shuffle448", Digest: digest,
				Metrics: map[string]metricValue{"op_ms": {opMS * f, "ms"}}})
		}
		blob, err := json.Marshal(&set)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 40, "d1")
	var out bytes.Buffer
	if worse, err := compareFiles(&out, base, write("same.json", 41, "d1")); err != nil || worse {
		t.Errorf("same run set: worse=%v err=%v\n%s", worse, err, out.String())
	}
	out.Reset()
	if worse, err := compareFiles(&out, base, write("slow.json", 60, "d1")); err != nil || !worse || !strings.Contains(out.String(), "worse") {
		t.Errorf("slower run set: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if worse, err := compareFiles(&out, base, write("wrong.json", 40, "d2")); err != nil || !worse {
		t.Errorf("other digest: worse=%v err=%v", worse, err)
	}
}

func TestMixGenerator(t *testing.T) {
	sequence := func(seed uint64, n int) ([]request, *mixGenerator) {
		g := newMixGenerator(seed)
		for i := 0; i < svcPrefill; i++ {
			g.issue(classMiss)
		}
		reqs := make([]request, n)
		for i := range reqs {
			reqs[i] = g.next()
		}
		return reqs, g
	}
	const n = 2000
	a, ga := sequence(42, n)
	b, _ := sequence(42, n)
	c, _ := sequence(43, n)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, request %d differs: %+v vs %+v", i, a[i], b[i])
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Error("another seed gave the same sequence")
	}
	if !bytes.Equal(ga.body(a[0], false), ga.body(b[0], false)) {
		t.Error("same request rendered two bodies")
	}

	var byClass [numClasses]int
	lastUse := map[int]int{}
	for i, r := range a {
		byClass[r.class]++
		if prev, seen := lastUse[r.key]; seen && i-prev < svcRepeatLag {
			t.Errorf("request %d repeats key %d after only %d requests", i, r.key, i-prev)
		}
		lastUse[r.key] = i
		if (r.class == classHit || r.class == classRespelled) != r.wantCached {
			t.Errorf("request %d: class %s but wantCached=%v", i, classNames[r.class], r.wantCached)
		}
	}
	for class, per20 := range mixCounts {
		if want := n / 20 * per20; byClass[class] != want {
			t.Errorf("%d %s requests of %d, want %d", byClass[class], classNames[class], n, want)
		}
	}
	// A respelled request is the same campaign in other words.
	plain, respelled := request{key: 3, class: classHit}, request{key: 3, class: classRespelled}
	if bytes.Equal(ga.body(plain, false), ga.body(respelled, false)) {
		t.Error("respelled body equals the canonical one")
	}
}

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	var want bytes.Buffer
	if err := printManifest(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("BENCHMARK.json differs from `bench -manifest`; regenerate it")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.name] || d.unit == "" || len(d.name) > 64 {
			t.Errorf("metric %q: duplicate, unitless or too long", d.name)
		}
		seen[d.name] = true
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128", len(perLayer))
	}
}

// TestQuickSmoke builds the benchmark and runs one cheap simulation workload
// and the service workload in -quick mode, untraced and traced: every
// end-to-end metric, respectively every per-layer metric, must be on the
// result line exactly once, and the outputs must check out.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark binary")
	}
	bin := filepath.Join(t.TempDir(), "smpibench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, workload := range []string{"dt_shuffle448", "service_mix"} {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			cmd := exec.Command(bin, "--workload", workload, "--seed", "5", "--seconds", "0.3", "--trace", []string{"0", "1"}[trace], "-quick")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s trace %d: %v\n%s", workload, trace, err, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res struct {
				Correct   bool                   `json:"correct"`
				Attempted int                    `json:"attempted"`
				Failed    int                    `json:"failed"`
				Metrics   map[string]metricValue `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s trace %d: last line %q: %v", workload, trace, lines[len(lines)-1], err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d\n%s", workload, trace, res.Correct, res.Attempted, res.Failed, stderr.String())
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics on the result line, want %d", workload, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace %d: metric %s = %+v (present=%v), want unit %s", workload, trace, d.name, m, ok, d.unit)
				}
				if trace == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", workload, d.name, m.Value)
				}
			}
		}
	}
}
