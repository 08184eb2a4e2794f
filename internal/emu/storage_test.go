package emu

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"smpigo/internal/core"
	"smpigo/internal/lmm"
	"smpigo/internal/platform"
	"smpigo/internal/platform/platformtest"
	"smpigo/internal/simix"
)

// TestHopStorageHoldsNoPointer: hop events and the FIFO chunks carry
// indices, never a Go pointer, so the garbage collector never scans a
// chunk and a hop event adds no pointer to the heap's entry; an entry is
// 24 bytes; and a chunk fills the allocator's 1 KiB size class with no
// room left for another entry.
func TestHopStorageHoldsNoPointer(t *testing.T) {
	for _, v := range []any{hopEvent{}, fifoChunk{}} {
		typ := reflect.TypeOf(v)
		if path := pointerIn(typ, typ.Name()); path != "" {
			t.Errorf("%s holds a pointer: %s", typ.Name(), path)
		}
	}
	entry := unsafe.Sizeof(fifoEntry{})
	if entry > 24 {
		t.Errorf("fifoEntry is %d bytes, want <= 24", entry)
	}
	if size := unsafe.Sizeof(fifoChunk{}); size > 1<<10 || size+entry <= 1<<10 {
		t.Errorf("fifoChunk is %d bytes, want one %d-byte entry short of 1 KiB or closer", size, entry)
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
// queues some 22 000 packets behind the host's link at once. The Net takes
// a fresh chunk only when its free list is empty, so the chunks it ever
// allocated were all in use at once, and every one of them is back on the
// free list when the run ends. Nothing is copied as the FIFOs grow: the
// whole run allocates the chunks plus a little for its messages, closures
// and goroutines.
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

	if held := len(n.chunks) * chunkEntries; held < 20000 {
		t.Fatalf("the fan-out peaked at %d chunks (%d entries), want room for the ~22 000 packets queued behind host 0", len(n.chunks), held)
	}
	free := 0
	for c := n.freeChunks; c != 0 && free <= len(n.chunks); c = n.chunks[c-1].next {
		free++
	}
	if free != len(n.chunks) {
		t.Errorf("%d chunks back on the free list after the run, want all %d", free, len(n.chunks))
	}

	if testing.Short() {
		return // the race detector allocates on its own account
	}
	chunks := uint64(len(n.chunks)) * uint64(unsafe.Sizeof(fifoChunk{}))
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("peak %d chunks, %d B, the run allocated %d B", len(n.chunks), chunks, alloc)
	if alloc > chunks+64<<10 {
		t.Errorf("the run allocated %d B, want <= %d B of chunks + 64 KiB", alloc, chunks)
	}
}

// TestRouteListingALinkTwicePanics: a packet waiting in a port's FIFO finds
// its next hop by the port link's place on its route, so a route that
// crosses one link twice is refused when a message takes it, naming the
// link, rather than sending its packets down the wrong hop.
func TestRouteListingALinkTwicePanics(t *testing.T) {
	f := platformtest.New("loop")
	a, b := f.Platform.NewHost(1e9), f.Platform.NewHost(1e9)
	up := f.Link("up", 1e9, 1e-6, lmm.Shared)
	across := f.Link("across", 1e9, 1e-6, lmm.Shared)
	f.Route(a, b, up, across, up, across)
	n := NewNet(simix.New(), f.Platform, OpenMPI())
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "lists link up twice") {
			t.Errorf("inject over a route crossing link up twice: recovered %v, want a panic naming the link", r)
		}
	}()
	n.inject(a, b, 1, 0, false, func(core.Time) {})
}
