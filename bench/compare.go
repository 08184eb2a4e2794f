package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// verdict judges one end-to-end metric of one workload across two run sets.
// base and other are the per-run values of each set. The change is
// "unresolved" when either set's own interquartile spread exceeds the
// metric's bound, "worse" or "better" when the medians differ by more than
// the bound in that direction, and "same" otherwise.
func verdict(def metricDef, base, other []float64) (string, float64, float64) {
	a, b := median(base), median(other)
	if spread(base) > def.bound || spread(other) > def.bound {
		return "unresolved", a, b
	}
	change := (b - a) / a
	if def.better == "higher" {
		change = -change
	}
	switch {
	case change > def.bound:
		return "worse", a, b
	case change < -def.bound:
		return "better", a, b
	}
	return "same", a, b
}

func loadRunSet(path string) (*runSet, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set runSet
	if err := json.Unmarshal(blob, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// values collects one metric of one workload over a set's untraced runs.
func (s *runSet) values(workload, metric string) []float64 {
	var vs []float64
	for _, r := range s.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Traced {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// compareFiles prints one row per (workload, end-to-end metric) and reports
// whether any row is worse. Outputs must agree too: a digest that differs
// between the sets is a worse row of its own.
func compareFiles(w io.Writer, basePath, otherPath string) (worse bool, err error) {
	base, err := loadRunSet(basePath)
	if err != nil {
		return false, err
	}
	other, err := loadRunSet(otherPath)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tbase (%s)\tother (%s)\tother/base\tbound\tverdict\n", basePath, otherPath)
	for _, wl := range workloads {
		for _, def := range endToEnd {
			a, b := base.values(wl.name, def.name), other.values(wl.name, def.name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v, ma, mb := verdict(def, a, b)
			worse = worse || v == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s (n=%d)\t%.6g %s (n=%d)\t%.4f\t%g\t%s\n",
				wl.name, def.name, ma, def.unit, len(a), mb, def.unit, len(b), mb/ma, def.bound, v)
		}
		if da, db := base.digest(wl.name), other.digest(wl.name); da != db {
			worse = true
			fmt.Fprintf(tw, "%s\toutput digest\t%s\t%s\t\t\tworse\n", wl.name, da, db)
		}
	}
	return worse, tw.Flush()
}

func (s *runSet) digest(workload string) string {
	for _, r := range s.Runs {
		if r.Workload == workload {
			return r.Digest
		}
	}
	return ""
}
