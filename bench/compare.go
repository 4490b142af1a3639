package main

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// minPairs is the fewest alternating base/change run pairs an improvement
// claim may rest on.
const minPairs = 10

// verdict judges one end-to-end metric on one workload from paired runs
// (base[i] and change[i] ran back to back, alternating which went first):
//
//   - improved: at least minPairs pairs, the change wins at least nine in
//     ten of them, and the medians differ by more than the base runs'
//     interquartile range;
//   - regressed: the change's median is worse than the base median by more
//     than the metric's bound;
//   - unresolved: the base runs spread wider than the bound, so "not worse
//     by more than the bound" cannot be told from noise, unless every
//     change run reads better than every base run;
//   - unchanged: otherwise.
func verdict(m metricSpec, base, change []float64) (v string, wins int) {
	sign := 1.0 // +1 when higher is better
	if m.Better == "lower" {
		sign = -1
	}
	for i := range base {
		if sign*(change[i]-base[i]) > 0 {
			wins++
		}
	}
	bq := quartiles(base)
	bm, cm := median(base), median(change)
	iqr := bq[2] - bq[0]
	gain := sign * (cm - bm)
	allBetter := false
	if len(base) > 0 && len(change) > 0 {
		if sign > 0 {
			allBetter = slices.Min(change) > slices.Max(base)
		} else {
			allBetter = slices.Max(change) < slices.Min(base)
		}
	}
	switch {
	case len(base) >= minPairs && wins*10 >= 9*len(base) && gain > 0 && math.Abs(cm-bm) > iqr:
		return "improved", wins
	case -gain > m.Bound*math.Abs(bm):
		return "regressed", wins
	case iqr > m.Bound*math.Abs(bm) && !allBetter:
		return "unresolved", wins
	}
	return "unchanged", wins
}

// compareSeries prints, for every workload and end-to-end metric of
// BENCHMARK.json, each side's median and quartiles over the paired runs
// and the verdict. Run i of base is paired with run i of change.
func compareSeries(out io.Writer, spec *benchSpec, base, change []*results) {
	pairs := min(len(base), len(change))
	fmt.Fprintf(out, "%d pairs\n", pairs)
	for _, wr := range base[0].Workloads {
		name := wr.Workload.Name
		for _, m := range spec.EndToEnd {
			var bv, cv []float64
			for i := 0; i < pairs; i++ {
				b, okb := metricOf(base[i], name, m.Name)
				c, okc := metricOf(change[i], name, m.Name)
				if okb && okc {
					bv, cv = append(bv, b), append(cv, c)
				}
			}
			v, wins := verdict(m, bv, cv)
			bq, cq := quartiles(bv), quartiles(cv)
			fmt.Fprintf(out, "%-13s %-15s base %.4g [%.4g %.4g]  change %.4g [%.4g %.4g] %s  wins %d/%d  %s\n",
				name, m.Name, median(bv), bq[0], bq[2], median(cv), cq[0], cq[2], m.Unit, wins, len(bv), v)
		}
	}
	for _, side := range []struct {
		label string
		runs  []*results
	}{{"base", base}, {"change", change}} {
		for i, r := range side.runs {
			for _, wr := range r.Workloads {
				if wr.Failed > 0 || !wr.Correct {
					fmt.Fprintf(out, "%s run %d: %s failed the correctness gate (%d of %d requests)\n",
						side.label, i+1, wr.Workload.Name, wr.Failed, wr.Attempted)
				}
			}
		}
	}
}

func metricOf(r *results, workload, metric string) (float64, bool) {
	for _, wr := range r.Workloads {
		if wr.Workload.Name == workload {
			m, ok := wr.EndToEnd[metric]
			return m.Value, ok
		}
	}
	return 0, false
}
