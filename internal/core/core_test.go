package core

import (
	"math"
	"testing"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0s"},
		{1.5, "1.5s"},
		{0.002, "2ms"},
		{25e-6, "25µs"},
		{TimeForever, "forever"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%v).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{0, "0B"},
		{512, "512B"},
		{1024, "1KiB"},
		{64 * KiB, "64KiB"},
		{4 * MiB, "4MiB"},
		{3 * GiB, "3GiB"},
		{1500, "1500B"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.in); got != c.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestFormatRate(t *testing.T) {
	if got := FormatRate(125e6); got != "1Gbps" {
		t.Errorf("FormatRate(125e6) = %q, want 1Gbps", got)
	}
	if got := FormatRate(1.25e9); got != "10Gbps" {
		t.Errorf("FormatRate(1.25e9) = %q, want 10Gbps", got)
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
	}{
		{"0", 0},
		{"1500", 1500},
		{"1500B", 1500},
		{"64KiB", 64 * KiB},
		{"4MiB", 4 * MiB},
		{"1GiB", GiB},
		{"1kB", 1000},
		{"2MB", 2000000},
		{"9007199254740993B", 1<<53 + 1}, // a float64 would round it down
		{"9223372036854775807", math.MaxInt64},
	}
	for _, c := range cases {
		got, err := ParseBytes(c.in)
		if err != nil {
			t.Fatalf("ParseBytes(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("ParseBytes(%q) = %d, want %d", c.in, got, c.want)
		}
	}
	if _, err := ParseBytes("12xyz"); err == nil {
		t.Error("ParseBytes(12xyz) should fail")
	}
	if _, err := ParseBytes(""); err == nil {
		t.Error("ParseBytes(empty) should fail")
	}
	for _, in := range []string{"9223372036854775808", "1e300GB", "10000000000GiB", "-1e19", "-5", "-1KiB"} {
		if got, err := ParseBytes(in); err == nil {
			t.Errorf("ParseBytes(%q) = %d, want an error", in, got)
		}
	}
}

func TestParseRate(t *testing.T) {
	got, err := ParseRate("1Gbps")
	if err != nil || math.Abs(got-125e6) > 1e-6 {
		t.Errorf("ParseRate(1Gbps) = %v, %v; want 125e6", got, err)
	}
	got, err = ParseRate("10Gbps")
	if err != nil || math.Abs(got-1.25e9) > 1e-3 {
		t.Errorf("ParseRate(10Gbps) = %v, %v; want 1.25e9", got, err)
	}
	got, err = ParseRate("125MBps")
	if err != nil || math.Abs(got-125e6) > 1e-6 {
		t.Errorf("ParseRate(125MBps) = %v, %v; want 125e6", got, err)
	}
}

func TestParseDuration(t *testing.T) {
	cases := []struct {
		in   string
		want Duration
	}{
		{"25us", 25e-6},
		{"1.5ms", 1.5e-3},
		{"2s", 2},
		{"100ns", 100e-9},
		{"0.5", 0.5},
	}
	for _, c := range cases {
		got, err := ParseDuration(c.in)
		if err != nil {
			t.Fatalf("ParseDuration(%q): %v", c.in, err)
		}
		if math.Abs(float64(got-c.want)) > 1e-15 {
			t.Errorf("ParseDuration(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseFlops(t *testing.T) {
	got, err := ParseFlops("2.5Gf")
	if err != nil || got != 2.5e9 {
		t.Errorf("ParseFlops(2.5Gf) = %v, %v; want 2.5e9", got, err)
	}
	got, err = ParseFlops("2e6f")
	if err != nil || got != 2e6 {
		t.Errorf("ParseFlops(2e6f) = %v, %v; want 2e6", got, err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must yield same stream")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds should diverge")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(9)
	counts := make([]int, 5)
	for i := 0; i < 5000; i++ {
		counts[r.Intn(5)]++
	}
	for i, c := range counts {
		if c < 700 {
			t.Errorf("bucket %d severely under-represented: %d", i, c)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(5)
	a := r.Split()
	b := r.Split()
	if a.Uint64() == b.Uint64() {
		t.Error("split streams should differ")
	}
}
