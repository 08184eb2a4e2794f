package replay

import (
	"bytes"
	"testing"

	"smpigo/internal/platform"
	"smpigo/internal/smpi"
	"smpigo/internal/trace"
)

// FuzzReplay: a file handed to smpirun -replay is read, validated by App
// and run. A trace is either refused or replays to a report or an error;
// it never crashes the process. Traces above 16 ranks or 2 000 events are
// skipped, so a fuzzed header never starts thousands of actors.
func FuzzReplay(f *testing.F) {
	plat, err := platform.Griffon().Build()
	if err != nil {
		f.Fatal(err)
	}
	rec := trace.New(2)
	rec.RecordCompute(0, 0.125)
	rec.RecordWait(0, rec.RecordIsend(0, 1, 3, 1024))
	req, _ := rec.RecordIrecv(1, 0, 3, 1024)
	rec.RecordWait(1, req)
	var buf bytes.Buffer
	if err := rec.Write(&buf); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		// The seeds of trace.FuzzReadTrace.
		buf.String(),
		"procs 100000000000",
		"procs 1\n0 C 1e-3",
		"procs 3\n2 S 0 -1 +5\n1 R 2 7 0\n0 C NaN\n0 C -0\n",
		"procs 2\n\n",
		"procs 2\n0 X 1\n",
		// Bursts no date completes.
		"procs 1\n0 C NaN",
		"procs 1\n0 C +Inf",
		"procs 1\n0 C 1e300",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		tr, err := trace.Read(bytes.NewReader(in))
		if err != nil || tr.Procs > 16 || tr.Events() > 2000 {
			return
		}
		app, procs, err := App(tr)
		if err != nil {
			return
		}
		rep, err := smpi.Run(smpi.Config{Procs: procs, Platform: plat}, app)
		if err == nil && rep == nil {
			t.Fatalf("%q replayed to neither a report nor an error", in)
		}
	})
}
