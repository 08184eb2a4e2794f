package emu

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"smpigo/internal/core"
	"smpigo/internal/platform"
	"smpigo/internal/simix"
)

// TestHopStorageHoldsNoPointer: the hop events the heap sifts and the FIFO
// nodes the chunks hold carry indices, never a Go pointer, so neither the
// heap nor a chunk costs the garbage collector a write barrier or a scan;
// and a node is 32 bytes.
func TestHopStorageHoldsNoPointer(t *testing.T) {
	for _, v := range []any{hopEvent{}, hopNode{}} {
		typ := reflect.TypeOf(v)
		if path := pointerIn(typ, typ.Name()); path != "" {
			t.Errorf("%s holds a pointer: %s", typ.Name(), path)
		}
	}
	if size := unsafe.Sizeof(hopNode{}); size > 32 {
		t.Errorf("hopNode is %d bytes, want <= 32", size)
	}
}

// pointerIn returns the path of the first field of typ (named path) whose
// value holds a pointer, or "".
func pointerIn(typ reflect.Type, path string) string {
	switch typ.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Func,
		reflect.Chan, reflect.Interface, reflect.String:
		return path + " (" + typ.String() + ")"
	case reflect.Array:
		return pointerIn(typ.Elem(), path+"[]")
	case reflect.Struct:
		for i := range typ.NumField() {
			f := typ.Field(i)
			if p := pointerIn(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
	}
	return ""
}

// TestHopPoolGrowsByChunks: a 31-way 1 MiB fan-out from one griffon host
// queues some 22 000 packets behind the host's link at once. The FIFO pool
// takes a fresh node only when its free list is empty, so the nodes it ever
// handed out were all in use at once; it holds them in chunks of chunkNodes
// and allocates no more than that peak, sentinel included, rounded up to one
// chunk. Nothing is copied as it grows: the whole run allocates the chunks
// plus a little for its messages, closures and goroutines, where a slab grown
// by append allocated about four times its peak.
func TestHopPoolGrowsByChunks(t *testing.T) {
	p, err := platform.Griffon().Build()
	if err != nil {
		t.Fatal(err)
	}
	k := simix.New()
	n := NewNet(k, p, OpenMPI())
	k.AddModel(n)
	k.Spawn("root", func(pr *simix.Proc) {
		fs := make([]*simix.Future, 31)
		for i := range fs {
			fs[i] = simix.NewFuture()
			n.Transfer(p.HostByID(0), p.HostByID(i+1), core.MiB, fs[i])
		}
		for _, f := range fs {
			pr.Wait(f)
		}
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)

	last := len(n.nodes) - 1
	handedOut := last*chunkNodes + len(n.nodes[last])
	peak := handedOut - 1 // node 0 is the sentinel
	if peak < 20000 {
		t.Fatalf("the fan-out peaked at %d nodes in use, want the ~22 000 packets queued behind host 0", peak)
	}
	for i, c := range n.nodes {
		if cap(c) != chunkNodes {
			t.Errorf("chunk %d holds %d nodes, want %d", i, cap(c), chunkNodes)
		}
	}
	if want := (handedOut + chunkNodes - 1) / chunkNodes; len(n.nodes) > want {
		t.Errorf("%d chunks for a peak of %d nodes in use, want <= %d", len(n.nodes), peak, want)
	}
	free := 0
	for i := n.free; i != 0; i = n.node(i).next {
		free++
	}
	if free != peak {
		t.Errorf("%d nodes back on the free list after the run, want all %d", free, peak)
	}

	if testing.Short() {
		return // the race detector allocates on its own account
	}
	chunks := uint64(len(n.nodes)) * chunkNodes * uint64(unsafe.Sizeof(hopNode{}))
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("peak %d nodes in use, %d chunks of %d B, the run allocated %d B", peak, len(n.nodes), chunks, alloc)
	if alloc > chunks+64<<10 {
		t.Errorf("the run allocated %d B, want <= %d B of chunks + 64 KiB", alloc, chunks)
	}
}
