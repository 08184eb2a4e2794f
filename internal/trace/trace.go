// Package trace implements the *off-line* simulation baseline that the
// paper's Section 2 contrasts on-line simulation with: a time-stamped log
// of MPI communication events and CPU bursts is recorded during one run,
// and can later be replayed on a (possibly different) simulated platform.
//
// Recording happens at the point-to-point level — collectives appear as
// the sets of sends/receives they decompose into, like the traces of
// real MPI tracing tools — with four event kinds per rank, in program
// order: Compute (a charged burst), Isend, Irecv, and Wait (by request
// index). Replaying interprets that per-rank program against the smpi API,
// so the replayer shares the timing machinery of the on-line simulator.
//
// The package exists both as a feature (post-mortem performance studies)
// and as a demonstration of the paper's argument: a trace is bound to the
// application behaviour observed during recording, whereas the on-line
// simulator re-executes the application and follows its data-dependent
// choices on every platform.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"smpigo/internal/core"
)

// Kind discriminates trace events.
type Kind byte

// Event kinds, in the order they appear in serialized traces.
const (
	// Compute is a CPU burst charged to simulated time.
	Compute Kind = 'C'
	// Isend is a non-blocking send initiation.
	Isend Kind = 'S'
	// Irecv is a non-blocking receive initiation (Peer is the actual
	// matched source, resolved at completion, so wildcard receives replay
	// deterministically).
	Irecv Kind = 'R'
	// Wait blocks on the request with index Req in this rank's stream.
	Wait Kind = 'W'
)

// Event is one entry of a rank's program-order stream.
type Event struct {
	Kind Kind
	// Peer is the remote world rank (Isend/Irecv).
	Peer int
	// Tag is the message tag (Isend/Irecv).
	Tag int
	// Bytes is the payload size (Isend/Irecv).
	Bytes int64
	// Duration is the burst length in simulated seconds (Compute).
	Duration core.Duration
	// Req is the rank-local request index to wait for (Wait).
	Req int
}

// MaxProcs is the largest proc count Read accepts. Read sizes two per-rank
// slices from the header before any event line, so an unbounded count would
// let a few bytes of input claim the machine's memory; at this bound they
// take 32 MiB. It is sixteen times the largest platform the builders make
// (65 536 hosts).
const MaxProcs = 1 << 20

// Trace is a complete recording: one event stream per rank.
type Trace struct {
	Procs   int
	Streams [][]Event

	reqCounts []int // requests issued per rank (recording bookkeeping)
}

// New returns an empty trace for the given rank count.
func New(procs int) *Trace {
	return &Trace{
		Procs:     procs,
		Streams:   make([][]Event, procs),
		reqCounts: make([]int, procs),
	}
}

// Events returns the total number of recorded events.
func (t *Trace) Events() int {
	n := 0
	for _, s := range t.Streams {
		n += len(s)
	}
	return n
}

// Recorder is the hook interface the on-line simulator calls while running
// with tracing enabled. All methods are invoked from the sequential
// simulation, in program order per rank.
type Recorder interface {
	// RecordCompute logs a charged CPU burst.
	RecordCompute(rank int, d core.Duration)
	// RecordIsend logs a send initiation and returns the rank-local
	// request index assigned to it.
	RecordIsend(rank, peer, tag int, bytes int64) int
	// RecordIrecv logs a receive initiation and returns both the request
	// index and a setter used to patch in the matched source when the
	// message is delivered (wildcard resolution).
	RecordIrecv(rank, peer, tag int, bytes int64) (int, func(actualPeer int))
	// RecordWait logs a blocking wait on a request index.
	RecordWait(rank, req int)
}

// RecordCompute implements Recorder.
func (t *Trace) RecordCompute(rank int, d core.Duration) {
	t.Streams[rank] = append(t.Streams[rank], Event{Kind: Compute, Duration: d})
}

// RecordIsend implements Recorder.
func (t *Trace) RecordIsend(rank, peer, tag int, bytes int64) int {
	t.Streams[rank] = append(t.Streams[rank], Event{Kind: Isend, Peer: peer, Tag: tag, Bytes: bytes})
	idx := t.reqCounts[rank]
	t.reqCounts[rank]++
	return idx
}

// RecordIrecv implements Recorder.
func (t *Trace) RecordIrecv(rank, peer, tag int, bytes int64) (int, func(int)) {
	t.Streams[rank] = append(t.Streams[rank], Event{Kind: Irecv, Peer: peer, Tag: tag, Bytes: bytes})
	evIdx := len(t.Streams[rank]) - 1
	reqIdx := t.reqCounts[rank]
	t.reqCounts[rank]++
	return reqIdx, func(actual int) {
		t.Streams[rank][evIdx].Peer = actual
	}
}

// RecordWait implements Recorder.
func (t *Trace) RecordWait(rank, req int) {
	t.Streams[rank] = append(t.Streams[rank], Event{Kind: Wait, Req: req})
}

// Write serializes the trace in a compact line format:
//
//	procs N
//	<rank> C <seconds> | <rank> S <peer> <tag> <bytes> | ...
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "procs %d\n", t.Procs)
	for rank, stream := range t.Streams {
		for _, e := range stream {
			switch e.Kind {
			case Compute:
				fmt.Fprintf(bw, "%d C %g\n", rank, float64(e.Duration))
			case Isend:
				fmt.Fprintf(bw, "%d S %d %d %d\n", rank, e.Peer, e.Tag, e.Bytes)
			case Irecv:
				fmt.Fprintf(bw, "%d R %d %d %d\n", rank, e.Peer, e.Tag, e.Bytes)
			case Wait:
				fmt.Fprintf(bw, "%d W %d\n", rank, e.Req)
			}
		}
	}
	return bw.Flush()
}

// Read parses a trace serialized by Write. Input is streamed line by line
// through a bufio.Reader, so traces of any size parse — a recorded DT class
// C run easily exceeds the 1 MiB cap a fixed Scanner buffer would impose.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	readLine := func() (string, error) {
		s, err := br.ReadString('\n')
		if err == io.EOF && s != "" {
			err = nil // final line without trailing newline
		}
		return strings.TrimSuffix(s, "\n"), err
	}
	header, err := readLine()
	if err == io.EOF {
		return nil, fmt.Errorf("trace: empty input")
	}
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	var procs int
	if _, err := fmt.Sscanf(header, "procs %d", &procs); err != nil {
		return nil, fmt.Errorf("trace: bad header %q", header)
	}
	if procs <= 0 || procs > MaxProcs {
		return nil, fmt.Errorf("trace: line 1: proc count %d outside [1, %d]", procs, MaxProcs)
	}
	t := New(procs)
	line := 1
	for {
		text, err := readLine()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line+1, err)
		}
		line++
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("trace: line %d: too few fields", line)
		}
		rank, err := strconv.Atoi(fields[0])
		if err != nil || rank < 0 || rank >= procs {
			return nil, fmt.Errorf("trace: line %d: bad rank %q", line, fields[0])
		}
		ev := Event{Kind: Kind(fields[1][0])}
		switch ev.Kind {
		case Compute:
			if len(fields) != 3 {
				return nil, fmt.Errorf("trace: line %d: want 3 fields", line)
			}
			d, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: %v", line, err)
			}
			ev.Duration = core.Duration(d)
		case Isend, Irecv:
			if len(fields) != 5 {
				return nil, fmt.Errorf("trace: line %d: want 5 fields", line)
			}
			if ev.Peer, err = strconv.Atoi(fields[2]); err != nil {
				return nil, fmt.Errorf("trace: line %d: %v", line, err)
			}
			if ev.Tag, err = strconv.Atoi(fields[3]); err != nil {
				return nil, fmt.Errorf("trace: line %d: %v", line, err)
			}
			if ev.Bytes, err = strconv.ParseInt(fields[4], 10, 64); err != nil {
				return nil, fmt.Errorf("trace: line %d: %v", line, err)
			}
		case Wait:
			if len(fields) != 3 {
				return nil, fmt.Errorf("trace: line %d: want 3 fields", line)
			}
			if ev.Req, err = strconv.Atoi(fields[2]); err != nil {
				return nil, fmt.Errorf("trace: line %d: %v", line, err)
			}
		default:
			return nil, fmt.Errorf("trace: line %d: unknown kind %q", line, fields[1])
		}
		t.Streams[rank] = append(t.Streams[rank], ev)
	}
}
