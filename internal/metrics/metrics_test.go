package metrics

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestLogErrorSymmetry(t *testing.T) {
	// The motivating property from the paper: doubling and halving give
	// the same error, unlike relative error.
	if LogError(2, 1) != LogError(1, 2) {
		t.Error("log error must be symmetric")
	}
}

func TestLogErrorExactValues(t *testing.T) {
	if got := LogError(math.E, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("LogError(e,1) = %v, want 1", got)
	}
	if got := LogError(5, 5); got != 0 {
		t.Errorf("LogError(5,5) = %v, want 0", got)
	}
}

func TestToPercent(t *testing.T) {
	// A log error of ln(2) is a 100% discrepancy.
	if got := ToPercent(math.Log(2)); math.Abs(got-100) > 1e-9 {
		t.Errorf("ToPercent(ln2) = %v, want 100", got)
	}
	if got := ToPercent(0); got != 0 {
		t.Errorf("ToPercent(0) = %v, want 0", got)
	}
}

func TestLogErrorPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	LogError(0, 1)
}

// panicMessage runs f and returns what it panicked with ("" if it returned).
func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestCheckedRejections pins the validity checks across the full table of
// bad inputs. NaN is the regression case: the old x <= 0 guard let it
// through (every NaN comparison is false) and math.Log silently poisoned
// the aggregate.
func TestCheckedRejections(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name   string
		x, ref float64
		want   string // substring of the panic message; "" means no panic
	}{
		{"valid", 2, 1, ""},
		{"zero prediction", 0, 1, "positive prediction, got 0"},
		{"zero reference", 1, 0, "positive reference, got 0"},
		{"negative prediction", -3, 1, "positive prediction, got -3"},
		{"negative reference", 1, -3, "positive reference, got -3"},
		{"NaN prediction", nan, 1, "positive prediction, got NaN"},
		{"NaN reference", 1, nan, "positive reference, got NaN"},
		{"both NaN", nan, nan, "positive prediction, got NaN"},
	} {
		got := panicMessage(func() { LogError(tc.x, tc.ref) })
		if (got == "") != (tc.want == "") || !strings.Contains(got, tc.want) {
			t.Errorf("LogError(%v, %v) [%s]: panic %q, want %q", tc.x, tc.ref, tc.name, got, tc.want)
		}
	}
}

// TestSummarizeCheckedContext verifies the panics carry enough context to
// locate a bad point in a measured series.
func TestSummarizeCheckedContext(t *testing.T) {
	for _, tc := range []struct {
		pred, ref []float64
		want      string
	}{
		{[]float64{1}, []float64{1, 2}, "1 predictions vs 2 references"},
		{nil, nil, "empty"},
		{[]float64{1, 2, math.NaN(), 4}, []float64{1, 1, 1, 1}, "point 2 of 4"},
	} {
		if got := panicMessage(func() { Summarize(tc.pred, tc.ref) }); !strings.Contains(got, tc.want) {
			t.Errorf("Summarize(%v, %v): panic %q, want one containing %q", tc.pred, tc.ref, got, tc.want)
		}
	}
	if s := Summarize([]float64{1, 2}, []float64{1, 1}); s.N != 2 {
		t.Errorf("valid series: %v", s)
	}
}

func TestSummarizeNaNPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("want panic on NaN point")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "point 1 of 2") {
			t.Errorf("panic message lacks context: %q", msg)
		}
	}()
	Summarize([]float64{1, math.NaN()}, []float64{1, 1})
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 4}, []float64{1, 1, 1})
	if s.N != 3 {
		t.Errorf("N = %d", s.N)
	}
	wantMean := (0 + math.Log(2) + math.Log(4)) / 3
	if math.Abs(s.MeanLog-wantMean) > 1e-12 {
		t.Errorf("MeanLog = %v, want %v", s.MeanLog, wantMean)
	}
	if math.Abs(s.MaxLog-math.Log(4)) > 1e-12 {
		t.Errorf("MaxLog = %v", s.MaxLog)
	}
	if math.Abs(s.worstPct()-300) > 1e-9 {
		t.Errorf("worstPct = %v, want 300", s.worstPct())
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestSummarizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	Summarize([]float64{1}, []float64{1, 2})
}

func TestLogErrorProperties(t *testing.T) {
	f := func(a, b uint32) bool {
		x := float64(a%10000) + 1
		r := float64(b%10000) + 1
		e := LogError(x, r)
		if e < 0 {
			return false
		}
		if e != LogError(r, x) {
			return false
		}
		// Scale invariance: errors depend only on the ratio.
		return math.Abs(e-LogError(10*x, 10*r)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
