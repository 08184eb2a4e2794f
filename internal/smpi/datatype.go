package smpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Datatype describes the element type of a communication buffer, as in the
// MPI standard's predefined datatypes. Buffers themselves are []byte; the
// datatype gives reduction operators their element size and interpretation.
type Datatype struct {
	name string
	size int
}

// Size returns the datatype's size in bytes.
func (d Datatype) Size() int { return d.size }

// Name returns the datatype's MPI-ish name.
func (d Datatype) Name() string { return d.name }

// Predefined datatypes.
var (
	Byte    = Datatype{"MPI_BYTE", 1}
	Int32   = Datatype{"MPI_INT", 4}
	Int64   = Datatype{"MPI_LONG_LONG", 8}
	Float32 = Datatype{"MPI_FLOAT", 4}
	Float64 = Datatype{"MPI_DOUBLE", 8}
)

// Op is a reduction operator (MPI_Op): a named binary function combining a
// source buffer into a destination buffer element-wise.
type Op struct {
	name  string
	apply func(dst, src []byte, dt Datatype)
}

// Name returns the operator name.
func (o Op) Name() string { return o.name }

// Apply combines src into dst element-wise (dst = dst OP src).
// It panics if the buffers disagree in length or are not a whole number of
// elements.
func (o Op) Apply(dst, src []byte, dt Datatype) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("smpi: op %s on buffers of different length (%d vs %d)", o.name, len(dst), len(src)))
	}
	if dt.size <= 0 || len(dst)%dt.size != 0 {
		panic(fmt.Sprintf("smpi: op %s buffer length %d not a multiple of %s size %d", o.name, len(dst), dt.name, dt.size))
	}
	o.apply(dst, src, dt)
}

// numericOp builds an element-wise operator from per-type combiners.
func numericOp(name string, i32 func(a, b int32) int32, i64 func(a, b int64) int64,
	f32 func(a, b float32) float32, f64 func(a, b float64) float64) Op {
	return Op{name: name, apply: func(dst, src []byte, dt Datatype) {
		switch dt {
		case Int32:
			for i := 0; i+4 <= len(dst); i += 4 {
				a := int32(binary.LittleEndian.Uint32(dst[i:]))
				b := int32(binary.LittleEndian.Uint32(src[i:]))
				binary.LittleEndian.PutUint32(dst[i:], uint32(i32(a, b)))
			}
		case Int64:
			for i := 0; i+8 <= len(dst); i += 8 {
				a := int64(binary.LittleEndian.Uint64(dst[i:]))
				b := int64(binary.LittleEndian.Uint64(src[i:]))
				binary.LittleEndian.PutUint64(dst[i:], uint64(i64(a, b)))
			}
		case Float32:
			for i := 0; i+4 <= len(dst); i += 4 {
				a := math.Float32frombits(binary.LittleEndian.Uint32(dst[i:]))
				b := math.Float32frombits(binary.LittleEndian.Uint32(src[i:]))
				binary.LittleEndian.PutUint32(dst[i:], math.Float32bits(f32(a, b)))
			}
		case Float64:
			for i := 0; i+8 <= len(dst); i += 8 {
				a := math.Float64frombits(binary.LittleEndian.Uint64(dst[i:]))
				b := math.Float64frombits(binary.LittleEndian.Uint64(src[i:]))
				binary.LittleEndian.PutUint64(dst[i:], math.Float64bits(f64(a, b)))
			}
		case Byte:
			for i := range dst {
				dst[i] = byte(i32(int32(dst[i]), int32(src[i])))
			}
		default:
			panic(fmt.Sprintf("smpi: op %s unsupported on datatype %s", name, dt.name))
		}
	}}
}

// Predefined reduction operators.
var (
	OpSum = numericOp("MPI_SUM",
		func(a, b int32) int32 { return a + b },
		func(a, b int64) int64 { return a + b },
		func(a, b float32) float32 { return a + b },
		func(a, b float64) float64 { return a + b })
	OpProd = numericOp("MPI_PROD",
		func(a, b int32) int32 { return a * b },
		func(a, b int64) int64 { return a * b },
		func(a, b float32) float32 { return a * b },
		func(a, b float64) float64 { return a * b })
	OpMax = numericOp("MPI_MAX",
		func(a, b int32) int32 { return max(a, b) },
		func(a, b int64) int64 { return max(a, b) },
		func(a, b float32) float32 { return float32(math.Max(float64(a), float64(b))) },
		math.Max)
	OpMin = numericOp("MPI_MIN",
		func(a, b int32) int32 { return min(a, b) },
		func(a, b int64) int64 { return min(a, b) },
		func(a, b float32) float32 { return float32(math.Min(float64(a), float64(b))) },
		math.Min)
	OpBAnd = numericOp("MPI_BAND",
		func(a, b int32) int32 { return a & b },
		func(a, b int64) int64 { return a & b },
		nanOp32, nanOp64)
	OpBOr = numericOp("MPI_BOR",
		func(a, b int32) int32 { return a | b },
		func(a, b int64) int64 { return a | b },
		nanOp32, nanOp64)
	OpLAnd = numericOp("MPI_LAND",
		func(a, b int32) int32 { return b2i(a != 0 && b != 0) },
		func(a, b int64) int64 { return int64(b2i(a != 0 && b != 0)) },
		nanOp32, nanOp64)
	OpLOr = numericOp("MPI_LOR",
		func(a, b int32) int32 { return b2i(a != 0 || b != 0) },
		func(a, b int64) int64 { return int64(b2i(a != 0 || b != 0)) },
		nanOp32, nanOp64)
)

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

func nanOp32(a, b float32) float32 {
	panic("smpi: bitwise/logical op on floating-point datatype")
}

func nanOp64(a, b float64) float64 {
	panic("smpi: bitwise/logical op on floating-point datatype")
}

// --- typed buffer helpers (little-endian, matching the operators) ---

// Float64sToBytes encodes vs into a fresh byte buffer.
func Float64sToBytes(vs []float64) []byte {
	out := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// BytesToFloat64s decodes buf (length multiple of 8) into float64s.
func BytesToFloat64s(buf []byte) []float64 {
	out := make([]float64, len(buf)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return out
}

// Int64sToBytes encodes vs into a fresh byte buffer.
func Int64sToBytes(vs []int64) []byte {
	out := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(v))
	}
	return out
}

// BytesToInt64s decodes buf (length multiple of 8) into int64s.
func BytesToInt64s(buf []byte) []int64 {
	out := make([]int64, len(buf)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return out
}
