package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"text/tabwriter"
)

// compare judges a change against its parent commit from the -json
// documents of alternating runs, by the rule for claiming a gain in a
// small sandbox: at least ten pairs; a gain only when the change wins at
// least nine in ten pairs and the medians differ by more than the
// parent's own spread (the distance between its quartiles); a regression
// when the change's median is worse than the parent's by more than the
// metric's bound; and "unresolved", not "unchanged", when the run-to-run
// spread is wider than the bound — unless every change run beats every
// parent run.

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []metricDoc   `json:"end_to_end"`
	PerLayer   []metricDoc   `json:"per_layer"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDoc struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

func loadSpec(path string) (benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return benchmarkSpec{}, err
	}
	var spec benchmarkSpec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return benchmarkSpec{}, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// sideRuns is one side's untraced runs: per workload, per metric, one
// value per document in run order, and the failed operations summed.
type sideRuns struct {
	values map[string]map[string][]float64
	failed map[string]int
}

func loadSide(pattern string) (sideRuns, int, error) {
	files, err := filepath.Glob(pattern)
	if err != nil {
		return sideRuns{}, 0, err
	}
	slices.Sort(files)
	side := sideRuns{values: map[string]map[string][]float64{}, failed: map[string]int{}}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return sideRuns{}, 0, err
		}
		var doc document
		if err := json.Unmarshal(b, &doc); err != nil {
			return sideRuns{}, 0, fmt.Errorf("%s: %w", f, err)
		}
		for _, run := range doc.Runs {
			if run.Trace != 0 {
				continue
			}
			m := side.values[run.Workload]
			if m == nil {
				m = map[string][]float64{}
				side.values[run.Workload] = m
			}
			for name, v := range run.Metrics {
				m[name] = append(m[name], v.Value)
			}
			side.failed[run.Workload] += run.Failed
		}
	}
	return side, len(files), nil
}

// verdict is the judgement of one metric on one workload.
type verdict struct {
	metric                  string
	parentMed, parentSpread float64 // spread: quartile distance ÷ median
	changeMed, changeSpread float64
	delta                   float64 // median change as a share of the parent's, positive = better
	wins, pairs             int
	label                   string
}

// judge applies the rule to one metric's paired values.
func judge(m metricDoc, parent, change []float64, moreFailures bool) verdict {
	v := verdict{metric: m.Name, pairs: len(parent)}
	better := func(a, b float64) bool {
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	for i := range parent {
		if better(change[i], parent[i]) {
			v.wins++
		}
	}
	pq1, pmed, pq3 := quartiles(parent)
	cq1, cmed, cq3 := quartiles(change)
	v.parentMed, v.changeMed = pmed, cmed
	v.parentSpread = (pq3 - pq1) / math.Abs(pmed)
	v.changeSpread = (cq3 - cq1) / math.Abs(cmed)
	v.delta = (cmed - pmed) / math.Abs(pmed)
	if m.Better != "higher" {
		v.delta = -v.delta
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	switch {
	case v.delta > 0 && 10*v.wins >= 9*v.pairs && math.Abs(cmed-pmed) > pq3-pq1 && !moreFailures:
		v.label = "gain"
	case max(v.parentSpread, v.changeSpread) > m.Bound && !allBetter:
		v.label = "unresolved"
	case -v.delta > m.Bound:
		v.label = "regression"
	default:
		v.label = "unchanged"
	}
	return v
}

func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("benchmark", "BENCHMARK.json", "the benchmark definition holding each metric's direction and bound")
	parentGlob := fs.String("parent", "", "glob of the parent commit's -json documents; sorted names give the run order")
	changeGlob := fs.String("change", "", "glob of the change's -json documents, in the same order")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	parent, np, err := loadSide(*parentGlob)
	if err == nil && np < 10 {
		err = fmt.Errorf("%d parent runs; at least ten alternating pairs are needed", np)
	}
	change, nc, cerr := loadSide(*changeGlob)
	if err == nil {
		err = cerr
	}
	if err == nil && nc != np {
		err = fmt.Errorf("%d parent runs but %d change runs; runs must pair up", np, nc)
	}
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	verdicts, err := compareSides(spec, parent, change)
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	regressed := printVerdicts(stdout, spec, verdicts)
	if regressed {
		return 1
	}
	return 0
}

// compareSides judges every end-to-end metric on every workload.
func compareSides(spec benchmarkSpec, parent, change sideRuns) (map[string][]verdict, error) {
	out := map[string][]verdict{}
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			p, c := parent.values[w.Name][m.Name], change.values[w.Name][m.Name]
			if len(p) == 0 || len(p) != len(c) {
				return nil, fmt.Errorf("%s %s: %d parent and %d change values", w.Name, m.Name, len(p), len(c))
			}
			out[w.Name] = append(out[w.Name], judge(m, p, c, change.failed[w.Name] > parent.failed[w.Name]))
		}
	}
	return out, nil
}

// printVerdicts prints one row per workload and then the numbers behind
// every verdict. It reports whether any metric regressed.
func printVerdicts(w io.Writer, spec benchmarkSpec, verdicts map[string][]verdict) bool {
	regressed := false
	for _, wl := range spec.Workloads {
		var parts []string
		for _, v := range verdicts[wl.Name] {
			parts = append(parts, v.metric+"="+v.label)
			regressed = regressed || v.label == "regression"
		}
		fmt.Fprintf(w, "%s: %s\n", wl.Name, strings.Join(parts, " "))
	}
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median\tspread\tchange median\tspread\tbetter by\twins\tverdict")
	for _, wl := range spec.Workloads {
		for _, v := range verdicts[wl.Name] {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.1f%%\t%s\t%.1f%%\t%+.1f%%\t%d/%d\t%s\n", wl.Name, v.metric,
				formatValue(v.parentMed), 100*v.parentSpread, formatValue(v.changeMed), 100*v.changeSpread,
				100*v.delta, v.wins, v.pairs, v.label)
		}
	}
	tw.Flush()
	return regressed
}
