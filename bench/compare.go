package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// runCompare compares result files of a base and a head commit, written
// with -out by runs that alternated between the two: -compare BASE.json...
// -- HEAD.json.... The i-th base and head files form a pair. It prints a
// verdict per end-to-end metric and workload and fails when one is worse.
func runCompare(args []string, stdout, stderr io.Writer) int {
	var base, head []string
	cur := &base
	for _, a := range args {
		if a == "--" {
			cur = &head
			continue
		}
		*cur = append(*cur, a)
	}
	if len(base) == 0 || len(head) == 0 {
		fmt.Fprintln(stderr, "bench: usage: -compare BASE.json... -- HEAD.json...")
		return 2
	}
	bv, err := loadValues(base)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	hv, err := loadValues(head)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	keys := make([]seriesKey, 0, len(bv))
	for k := range bv {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	code := 0
	for _, k := range keys {
		d, _ := metricIndex(k.metric)
		h, ok := hv[k]
		if d.bound == 0 || !ok {
			continue
		}
		v := judge(d, bv[k], h)
		fmt.Fprintf(stdout, "%-15s %-20s base %12.4f head %12.4f %-5s %+7.2f%% pairs=%d wins=%d losses=%d  %s\n",
			k.workload, k.metric, v.base, v.head, d.unit, v.changePct, v.pairs, v.wins, v.losses, v.verdict)
		if v.verdict == "worse" {
			code = 1
		}
	}
	return code
}

type seriesKey struct{ workload, metric string }

// loadValues reads result files into one series per workload and metric,
// in file order.
func loadValues(paths []string) (map[seriesKey][]float64, error) {
	out := map[seriesKey][]float64{}
	for _, p := range paths {
		rec, err := readRecord(p)
		if err != nil {
			return nil, err
		}
		for _, w := range rec.Workloads {
			for _, m := range w.Metrics {
				k := seriesKey{w.Workload, m.Name}
				out[k] = append(out[k], m.Value)
			}
		}
	}
	return out, nil
}

// comparison is the outcome of judge.
type comparison struct {
	base, head          float64 // medians
	changePct           float64 // head against base; positive is worse
	pairs, wins, losses int
	verdict             string
}

// judge applies the comparison rule: a change is better only when it wins
// at least nine in ten of at least ten pairs (ties count for neither) and
// the medians differ by more than the base's interquartile range. A metric
// whose base spread exceeds its bound is unresolved, unless every head run
// beats every base run; otherwise it is worse when the head median is
// worse than the base median by more than the bound.
func judge(d metricDef, base, head []float64) comparison {
	var c comparison
	q1, mb, q3 := quartiles(base)
	_, mh, _ := quartiles(head)
	c.base, c.head = mb, mh
	sign := 1.0
	if d.higher {
		sign = -1
	}
	c.changePct = 100 * sign * (mh - mb) / math.Abs(mb)
	c.pairs = min(len(base), len(head))
	for i := 0; i < c.pairs; i++ {
		switch diff := sign * (head[i] - base[i]); {
		case diff < 0:
			c.wins++
		case diff > 0:
			c.losses++
		}
	}
	separated := math.Abs(mh-mb) > q3-q1
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			if sign*(h-b) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case c.pairs >= 10 && 10*c.wins >= 9*c.pairs && separated:
		c.verdict = "better"
	case (q3-q1)/math.Abs(mb) > d.bound && !allBetter:
		c.verdict = "unresolved"
	case c.changePct > 100*d.bound:
		c.verdict = "worse"
	default:
		c.verdict = "within bound"
	}
	return c
}
