package trace

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"smpigo/internal/core"
)

func TestRecorderAssignsSequentialRequestIndices(t *testing.T) {
	tr := New(2)
	if idx := tr.RecordIsend(0, 1, 5, 100); idx != 0 {
		t.Errorf("first request index = %d, want 0", idx)
	}
	idx, resolve := tr.RecordIrecv(0, -1, 5, 100)
	if idx != 1 {
		t.Errorf("second request index = %d, want 1", idx)
	}
	if idx := tr.RecordIsend(1, 0, 5, 100); idx != 0 {
		t.Errorf("other rank's first index = %d, want 0 (per-rank counters)", idx)
	}
	resolve(1)
	if tr.Streams[0][1].Peer != 1 {
		t.Error("resolver did not patch the wildcard peer")
	}
}

func TestRecordWaitAndCompute(t *testing.T) {
	tr := New(1)
	tr.RecordCompute(0, 0.25)
	tr.RecordIsend(0, 0, 0, 8)
	tr.RecordWait(0, 0)
	if tr.Events() != 3 {
		t.Fatalf("events = %d, want 3", tr.Events())
	}
	if tr.Streams[0][0].Kind != Compute || tr.Streams[0][0].Duration != 0.25 {
		t.Errorf("compute event wrong: %+v", tr.Streams[0][0])
	}
	if tr.Streams[0][2].Kind != Wait || tr.Streams[0][2].Req != 0 {
		t.Errorf("wait event wrong: %+v", tr.Streams[0][2])
	}
}

// Property: any trace built from random events round-trips through the
// text serialization unchanged.
func TestSerializationRoundTripProperty(t *testing.T) {
	f := func(events []uint32) bool {
		const procs = 3
		tr := New(procs)
		for _, raw := range events {
			rank := int(raw % procs)
			switch (raw / 4) % 4 {
			case 0:
				tr.RecordCompute(rank, core.Duration(raw%1000)/1000)
			case 1:
				tr.RecordIsend(rank, int(raw%procs), int(raw%7), int64(raw%100000))
			case 2:
				tr.RecordIrecv(rank, int(raw%procs), int(raw%7), int64(raw%100000))
			case 3:
				if tr.reqCounts[rank] > 0 {
					tr.RecordWait(rank, int(raw)%tr.reqCounts[rank])
				}
			}
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			return false
		}
		back, err := Read(&buf)
		if err != nil {
			return false
		}
		if back.Procs != tr.Procs || back.Events() != tr.Events() {
			return false
		}
		for rank := range tr.Streams {
			for i, ev := range tr.Streams[rank] {
				if back.Streams[rank][i] != ev {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestLargeTraceRoundTrip is the regression test for the 1 MiB parsing
// cap: Read used a bufio.Scanner with a fixed maximum buffer, so recorded
// traces beyond it could fail to parse. The streamed reader must handle a
// multi-MiB trace (and a final line without a trailing newline) intact.
func TestLargeTraceRoundTrip(t *testing.T) {
	const procs = 8
	tr := New(procs)
	// ~200k events serialize to well over 2 MiB.
	for i := 0; i < 100000; i++ {
		rank := i % procs
		peer := (rank + 1) % procs
		req := tr.RecordIsend(rank, peer, i%7, int64(1000000+i))
		tr.RecordWait(rank, req)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 2<<20 {
		t.Fatalf("test trace only %d bytes, want > 2 MiB", buf.Len())
	}
	serialized := bytes.TrimSuffix(buf.Bytes(), []byte("\n")) // exercise EOF-without-newline too
	back, err := Read(bytes.NewReader(serialized))
	if err != nil {
		t.Fatalf("large trace failed to parse: %v", err)
	}
	if back.Events() != tr.Events() {
		t.Fatalf("events = %d, want %d", back.Events(), tr.Events())
	}
	for rank := range tr.Streams {
		for i, ev := range tr.Streams[rank] {
			if back.Streams[rank][i] != ev {
				t.Fatalf("rank %d event %d: %+v != %+v", rank, i, back.Streams[rank][i], ev)
			}
		}
	}
}

func TestEmptyTraceRoundTrip(t *testing.T) {
	tr := New(4)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Procs != 4 || back.Events() != 0 {
		t.Errorf("empty roundtrip: procs=%d events=%d", back.Procs, back.Events())
	}
}

// TestReadBoundsProcCount: the header's proc count sizes Read's per-rank
// slices, so a 19-byte file claiming 10^11 ranks used to take the
// machine's memory. Read refuses counts above MaxProcs, naming line 1, and
// still accepts MaxProcs itself.
func TestReadBoundsProcCount(t *testing.T) {
	for _, in := range []string{"procs 100000000000", fmt.Sprintf("procs %d\n", MaxProcs+1), "procs 0\n", "procs -3\n"} {
		if _, err := Read(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "line 1") {
			t.Errorf("Read(%q) = %v, want an error naming line 1", in, err)
		}
	}
	tr, err := Read(strings.NewReader(fmt.Sprintf("procs %d\n0 W 0\n", MaxProcs)))
	if err != nil || tr.Procs != MaxProcs || tr.Events() != 1 {
		t.Fatalf("Read at MaxProcs: %v", err)
	}
}

// sameTrace reports whether a and b hold the same ranks and events, with
// durations compared bit for bit (a NaN burst reads back as itself).
func sameTrace(a, b *Trace) bool {
	if a.Procs != b.Procs || len(a.Streams) != len(b.Streams) {
		return false
	}
	for rank, stream := range a.Streams {
		if len(stream) != len(b.Streams[rank]) {
			return false
		}
		for i, ev := range stream {
			other := b.Streams[rank][i]
			if math.Float64bits(float64(ev.Duration)) != math.Float64bits(float64(other.Duration)) {
				return false
			}
			ev.Duration, other.Duration = 0, 0
			if ev != other {
				return false
			}
		}
	}
	return true
}

// FuzzReadTrace: Read takes user bytes (smpirun -replay). It never panics,
// and every trace it accepts writes back to bytes that read as the same
// trace: Read(Write(Read(b))) == Read(b).
func FuzzReadTrace(f *testing.F) {
	rec := New(2)
	rec.RecordCompute(0, 0.125)
	rec.RecordWait(0, rec.RecordIsend(0, 1, 3, 1024))
	req, _ := rec.RecordIrecv(1, 0, 3, 1024)
	rec.RecordWait(1, req)
	var buf bytes.Buffer
	if err := rec.Write(&buf); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		buf.String(),
		"procs 100000000000",
		"procs 1\n0 C 1e-3",
		"procs 3\n2 S 0 -1 +5\n1 R 2 7 0\n0 C NaN\n0 C -0\n",
		"procs 2\n\n",
		"procs 2\n0 X 1\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		tr, err := Read(bytes.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := tr.Write(&out); err != nil {
			t.Fatal(err)
		}
		back, err := Read(&out)
		if err != nil {
			t.Fatalf("%q was accepted, but its rewrite %q does not read: %v", in, out.Bytes(), err)
		}
		if !sameTrace(tr, back) {
			t.Fatalf("%q reads differently once rewritten as %q", in, out.Bytes())
		}
	})
}
