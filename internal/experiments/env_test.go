package experiments

import (
	"bytes"
	"fmt"
	"go/format"
	"math"
	"os"
	"strconv"
	"testing"

	"smpigo/internal/platform"
	"smpigo/internal/surf"
)

// TestCalibrationIsCurrent runs the paper's Section 6 procedure — the SKaMPI
// ping-pong on the emulated griffon between hosts 0 and 1, and the three
// fits — and requires the models NewEnv reads from calibration_data.go to
// equal its result bit for bit. -update rewrites the file from this build,
// which a change that means to move the calibration must do.
func TestCalibrationIsCurrent(t *testing.T) {
	griffon, err := platform.Griffon().Build()
	if err != nil {
		t.Fatal(err)
	}
	_, _, fits, err := Calibrate(griffon, griffon.HostByID(0), griffon.HostByID(1))
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		src, err := calibrationSource(fits)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("calibration_data.go", src, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for i, fit := range fits {
		if !sameModel(fit, calibration[i]) {
			t.Fatalf("calibration_data.go holds %+v, Calibrate now fits %+v; regenerate with\n"+
				"\tgo test ./internal/experiments/ -run CalibrationIsCurrent -update", calibration[i], fit)
		}
	}
}

// sameModel reports whether a and b are equal to the last bit of every
// factor.
func sameModel(a, b surf.NetModel) bool {
	if a.Name != b.Name || len(a.Segments) != len(b.Segments) {
		return false
	}
	for i, s := range a.Segments {
		o := b.Segments[i]
		if s.MaxBytes != o.MaxBytes || math.Float64bits(s.LatFactor) != math.Float64bits(o.LatFactor) ||
			math.Float64bits(s.BwFactor) != math.Float64bits(o.BwFactor) {
			return false
		}
	}
	return true
}

// calibrationSource renders fits as calibration_data.go. Factors are written
// in the shortest form that parses back to the same float64.
func calibrationSource(fits [3]surf.NetModel) ([]byte, error) {
	var b bytes.Buffer
	b.WriteString(`// Code generated by TestCalibrationIsCurrent -update; DO NOT EDIT.

package experiments

import (
	"math"

	"smpigo/internal/surf"
)

var calibration = [3]surf.NetModel{
`)
	factor := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, m := range fits {
		fmt.Fprintf(&b, "{Name: %q, Segments: []surf.Segment{\n", m.Name)
		for _, s := range m.Segments {
			bound := strconv.FormatInt(s.MaxBytes, 10)
			if s.MaxBytes == math.MaxInt64 {
				bound = "math.MaxInt64"
			}
			fmt.Fprintf(&b, "{MaxBytes: %s, LatFactor: %s, BwFactor: %s},\n", bound, factor(s.LatFactor), factor(s.BwFactor))
		}
		b.WriteString("}},\n")
	}
	b.WriteString("}\n")
	return format.Source(b.Bytes())
}

// TestNewEnvRunsNoSimulation bounds what building the environment allocates:
// the two cluster builds take about 30 allocations, and a calibration back on
// the start-up path would take hundreds.
func TestNewEnvRunsNoSimulation(t *testing.T) {
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := buildEnv(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("buildEnv: %v allocations", allocs)
	if allocs > 100 {
		t.Errorf("buildEnv allocates %v times, want <= 100: is something simulating at start-up?", allocs)
	}
}
