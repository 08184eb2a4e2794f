package smpi

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"smpigo/internal/core"
	"smpigo/internal/surf"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/variants.golden from this build")

// goldenOp is how the variant golden drives one collective: a rank body
// running it once on float64 payloads of size bytes per rank.
type goldenOp struct {
	rooted, sized bool
	run           func(r *Rank, root, size int)
}

// goldenOps has one body per row of the collectives table, keyed by the
// row's name, plus the four v-variants (which the table does not select) on
// fold_test.go's uneven vCounts: half blocks and whole ones, so at 64 KiB
// they mix eager and rendezvous messages.
var goldenOps = map[string]goldenOp{
	"bcast": {rooted: true, sized: true, run: func(r *Rank, root, size int) {
		r.Comm().Bcast(r, make([]byte, size), root)
	}},
	"scatter": {rooted: true, sized: true, run: func(r *Rank, root, size int) {
		r.Comm().Scatter(r, make([]byte, r.Size()*size), make([]byte, size), root)
	}},
	"gather": {rooted: true, sized: true, run: func(r *Rank, root, size int) {
		r.Comm().Gather(r, make([]byte, size), make([]byte, r.Size()*size), root)
	}},
	"allgather": {sized: true, run: func(r *Rank, _, size int) {
		r.Comm().Allgather(r, make([]byte, size), make([]byte, r.Size()*size))
	}},
	"alltoall": {sized: true, run: func(r *Rank, _, size int) {
		r.Comm().Alltoall(r, make([]byte, r.Size()*size), make([]byte, r.Size()*size))
	}},
	"reduce": {rooted: true, sized: true, run: func(r *Rank, root, size int) {
		r.Comm().Reduce(r, make([]byte, size), make([]byte, size), Float64, OpSum, root)
	}},
	"allreduce": {sized: true, run: func(r *Rank, _, size int) {
		r.Comm().Allreduce(r, make([]byte, size), make([]byte, size), Float64, OpSum)
	}},
	"barrier": {run: func(r *Rank, _, _ int) { r.Comm().Barrier(r) }},

	"scatterv": {rooted: true, sized: true, run: func(r *Rank, root, size int) {
		counts, total := vCounts(r.Size(), size)
		r.Comm().Scatterv(r, make([]byte, total), counts, make([]byte, size), root)
	}},
	"gatherv": {rooted: true, sized: true, run: func(r *Rank, root, size int) {
		counts, total := vCounts(r.Size(), size)
		r.Comm().Gatherv(r, make([]byte, size), make([]byte, total), counts, root)
	}},
	"allgatherv": {sized: true, run: func(r *Rank, _, size int) {
		counts, total := vCounts(r.Size(), size)
		r.Comm().Allgatherv(r, make([]byte, size), make([]byte, total), counts)
	}},
	"alltoallv": {sized: true, run: func(r *Rank, _, size int) {
		// Rank i sends counts[(i+j)%p] bytes to rank j, so rank j receives
		// counts[(i+j)%p] from rank i: unequal in both directions.
		p, me := r.Size(), r.Rank()
		counts, total := vCounts(p, size)
		mine := make([]int, p)
		for j := range mine {
			mine[j] = counts[(me+j)%p]
		}
		r.Comm().Alltoallv(r, make([]byte, total), mine, make([]byte, total), mine)
	}},
}

// goldenModel is a fixed three-piece model of the calibrated piece-wise
// shape (small / eager / rendezvous), written out so the golden does not
// move when the calibration procedure does.
func goldenModel() surf.NetModel {
	return surf.NetModel{Name: "piecewise", Segments: []surf.Segment{
		{MaxBytes: 1420, LatFactor: 1.09, BwFactor: 0.56},
		{MaxBytes: 65536, LatFactor: 2.85, BwFactor: 0.89},
		{MaxBytes: math.MaxInt64, LatFactor: 5.37, BwFactor: 0.93},
	}}
}

// TestVariantGolden pins SimulatedTime, Messages and BytesOnWire of every
// (collective, variant) pair of the table and of the v-variants, bit for
// bit, against values generated at the commit before the table existed
// (3ff8409): 6 and 8 ranks, roots 0 and 3, 64 KiB (the first rendezvous
// size) and 128 KiB, griffon under a piece-wise model. Running it is also
// the proof that every variant the table lists dispatches.
func TestVariantGolden(t *testing.T) {
	type pair struct{ op, collectives string }
	var pairs []pair
	for _, c := range collectives {
		if _, ok := goldenOps[c.name]; !ok {
			t.Errorf("collective %q has no golden body", c.name)
		}
		for _, v := range c.variants {
			pairs = append(pairs, pair{c.name, c.name + "=" + v})
		}
	}
	for _, op := range []string{"scatterv", "gatherv", "allgatherv", "alltoallv"} {
		pairs = append(pairs, pair{op, "default"})
	}

	var got strings.Builder
	for _, pr := range pairs {
		op := goldenOps[pr.op]
		roots, sizes := []int{0}, []int{0}
		if op.rooted {
			roots = []int{0, 3}
		}
		if op.sized {
			sizes = []int{int(64 * core.KiB), int(128 * core.KiB)}
		}
		for _, p := range []int{6, 8} {
			for _, root := range roots {
				for _, size := range sizes {
					cfg := testConfig(p)
					cfg.Model = goldenModel()
					var err error
					if cfg.Algorithms, err = ParseAlgorithms(pr.collectives); err != nil {
						t.Fatal(err)
					}
					rep, err := Run(cfg, func(r *Rank) { op.run(r, root, size) })
					if err != nil {
						t.Fatalf("%s %s: %v", pr.op, pr.collectives, err)
					}
					fmt.Fprintf(&got, "%s %s p=%d root=%d size=%d\t%s %d %d\n", pr.op, pr.collectives, p, root, size,
						strconv.FormatFloat(float64(rep.SimulatedTime), 'g', -1, 64), rep.Messages, rep.BytesOnWire)
				}
			}
		}
	}

	const path = "testdata/variants.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d golden lines, this build produces %d", len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
		}
	}
}

// TestTableIsTheVocabulary checks the door from both sides: every name the
// table lists is accepted in any case and padding and comes back in the
// table's spelling, and a name is rejected — by ParseAlgorithms and by Run,
// before any rank body runs — wherever the table does not list it, including
// another collective's variant.
func TestTableIsTheVocabulary(t *testing.T) {
	all := map[string]bool{"bogus": true}
	for _, c := range collectives {
		for _, v := range c.variants {
			all[v] = true
		}
	}
	for _, c := range collectives {
		listed := map[string]bool{algoAuto: true}
		for _, v := range c.variants {
			listed[v] = true
		}
		for v := range listed {
			a, err := ParseAlgorithms(" " + strings.ToUpper(c.name) + " = " + strings.ToUpper(v) + " ")
			if err != nil || *c.field(&a) != v {
				t.Errorf("%s=%s respelled: got %q, %v", c.name, v, *c.field(&a), err)
			}
		}
		for v := range all {
			if listed[v] {
				continue
			}
			_, err := ParseAlgorithms(c.name + "=" + v)
			if err == nil || !strings.Contains(err.Error(), "want auto, ") || !strings.Contains(err.Error(), c.variants[0]) {
				t.Errorf("ParseAlgorithms(%s=%s) = %v, want an error listing the variants", c.name, v, err)
			}
			cfg, ran := testConfig(2), false
			*c.field(&cfg.Algorithms) = v
			if _, err := Run(cfg, func(*Rank) { ran = true }); err == nil || ran {
				t.Errorf("Run with %s=%s: err %v, rank body ran %v", c.name, v, err, ran)
			}
		}
	}
	if _, err := ParseAlgorithms("frobnicate=ring"); err == nil || !strings.Contains(err.Error(), "want bcast=") {
		t.Errorf("unknown collective: %v, want an error listing the table", err)
	}
}
