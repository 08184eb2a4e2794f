// Code generated by TestCalibrationIsCurrent -update; DO NOT EDIT.

package experiments

import (
	"math"

	"smpigo/internal/surf"
)

var calibration = [3]surf.NetModel{
	{Name: "default-affine", Segments: []surf.Segment{
		{MaxBytes: math.MaxInt64, LatFactor: 1.7118600283003473, BwFactor: 0.92},
	}},
	{Name: "best-fit-affine", Segments: []surf.Segment{
		{MaxBytes: math.MaxInt64, LatFactor: 1.7506571965969226, BwFactor: 0.8973588673103882},
	}},
	{Name: "piecewise", Segments: []surf.Segment{
		{MaxBytes: 16384, LatFactor: 1.72779507886081, BwFactor: 0.4537853248060734},
		{MaxBytes: 65536, LatFactor: 2.825619556477901, BwFactor: 0.6205022103308765},
		{MaxBytes: math.MaxInt64, LatFactor: 4.088497284386465, BwFactor: 0.9491210585811638},
	}},
}
