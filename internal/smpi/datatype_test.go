package smpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// encode writes vs as elements of dt, little-endian like the operators.
func encode(dt Datatype, vs []float64) []byte {
	buf := make([]byte, dt.size*len(vs))
	for i, v := range vs {
		at := buf[dt.size*i:]
		switch dt {
		case Byte:
			at[0] = byte(v)
		case Int32:
			binary.LittleEndian.PutUint32(at, uint32(int32(v)))
		case Int64:
			binary.LittleEndian.PutUint64(at, uint64(int64(v)))
		case Float32:
			binary.LittleEndian.PutUint32(at, math.Float32bits(float32(v)))
		case Float64:
			binary.LittleEndian.PutUint64(at, math.Float64bits(v))
		}
	}
	return buf
}

// decode reads buf back as elements of dt.
func decode(dt Datatype, buf []byte) []float64 {
	vs := make([]float64, len(buf)/dt.size)
	for i := range vs {
		at := buf[dt.size*i:]
		switch dt {
		case Byte:
			vs[i] = float64(at[0])
		case Int32:
			vs[i] = float64(int32(binary.LittleEndian.Uint32(at)))
		case Int64:
			vs[i] = float64(int64(binary.LittleEndian.Uint64(at)))
		case Float32:
			vs[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(at)))
		case Float64:
			vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(at))
		}
	}
	return vs
}

// TestOpsOnEveryDatatype applies every predefined operator to every
// predefined datatype. Signed types take a = [6 -3 0 2] and b = [3 5 7 0];
// Byte takes a = [200 16 0 2] and b = [100 17 7 0], so sums and products
// wrap modulo 256. The logical operators give 0 or 1, and the bitwise and
// logical ones refuse floating-point datatypes.
func TestOpsOnEveryDatatype(t *testing.T) {
	signedA, signedB := []float64{6, -3, 0, 2}, []float64{3, 5, 7, 0}
	byteA, byteB := []float64{200, 16, 0, 2}, []float64{100, 17, 7, 0}
	for _, tc := range []struct {
		op           Op
		signed, byte []float64 // a OP b
		intsOnly     bool      // panics on Float32 and Float64
	}{
		{OpSum, []float64{9, 2, 7, 2}, []float64{44, 33, 7, 2}, false},
		{OpProd, []float64{18, -15, 0, 0}, []float64{32, 16, 0, 0}, false},
		{OpMax, []float64{6, 5, 7, 2}, []float64{200, 17, 7, 2}, false},
		{OpMin, []float64{3, -3, 0, 0}, []float64{100, 16, 0, 0}, false},
		{OpBAnd, []float64{2, 5, 0, 0}, []float64{64, 16, 0, 0}, true},
		{OpBOr, []float64{7, -3, 7, 2}, []float64{236, 17, 7, 2}, true},
		{OpLAnd, []float64{1, 1, 0, 0}, []float64{1, 1, 0, 0}, true},
		{OpLOr, []float64{1, 1, 1, 1}, []float64{1, 1, 1, 1}, true},
	} {
		for _, dt := range []Datatype{Byte, Int32, Int64, Float32, Float64} {
			t.Run(tc.op.name+"/"+dt.name, func(t *testing.T) {
				a, b, want := signedA, signedB, tc.signed
				if dt == Byte {
					a, b, want = byteA, byteB, tc.byte
				}
				float := dt == Float32 || dt == Float64
				defer func() {
					r := recover()
					if panics := tc.intsOnly && float; panics != (r != nil) ||
						panics && !strings.Contains(fmt.Sprint(r), "floating-point datatype") {
						t.Errorf("panic = %v, want one: %v", r, panics)
					}
				}()
				dst := encode(dt, a)
				tc.op.Apply(dst, encode(dt, b), dt)
				if got := decode(dt, dst); !slices.Equal(got, want) {
					t.Errorf("%v %s %v = %v, want %v", a, tc.op.name, b, got, want)
				}
			})
		}
	}
}
