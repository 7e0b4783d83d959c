package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricDoc{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}
	higher := metricDoc{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		name           string
		m              metricDoc
		parent, change []float64
		moreFailures   bool
		want           string
	}{
		{"faster in every pair", lower, steady, scaled(0.9), false, "gain"},
		{"higher throughput", higher, steady, scaled(1.05), false, "gain"},
		{"a gain voided by more failures", lower, steady, scaled(0.9), true, "unchanged"},
		{"within the parent's spread", lower, steady, scaled(0.995), false, "unchanged"},
		{"worse beyond the bound", lower, steady, scaled(1.2), false, "regression"},
		{"lower throughput beyond the bound", higher, steady, scaled(0.8), false, "regression"},
		{"worse within the bound", lower, steady, scaled(1.05), false, "unchanged"},
		{
			"wins only 8 of 10", lower, steady,
			[]float64{90, 91, 89, 90, 92, 88, 90, 91, 101, 102}, false, "unchanged",
		},
		{
			"noisier than the bound", lower,
			[]float64{100, 150, 60, 130, 70, 100, 140, 65, 100, 135},
			[]float64{101, 149, 61, 131, 71, 99, 141, 66, 101, 134}, false, "unresolved",
		},
		{
			"noisy but every change run beats every parent run", lower,
			[]float64{100, 150, 160, 130, 170, 100, 140, 165, 100, 135},
			[]float64{10, 15, 6, 13, 7, 10, 14, 6.5, 10, 13.5}, false, "gain",
		},
	} {
		if got := judge(tc.m, tc.parent, tc.change, tc.moreFailures); got.label != tc.want {
			t.Errorf("%s: %s (delta %+.3f, wins %d/%d, spreads %.3f/%.3f), want %s", tc.name, got.label,
				got.delta, got.wins, got.pairs, got.parentSpread, got.changeSpread, tc.want)
		}
	}
}

func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	writeFile(t, spec, `{"command": ["bash", "bench/run.sh"], "paths": ["bench"], "run_seconds": 1,
		"workloads": [{"name": "a", "why": "x"}, {"name": "b", "why": "y"}],
		"end_to_end": [{"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}],
		"per_layer": [{"name": "trace.coverage", "unit": "ratio", "better": "higher"}]}`)
	run := func(side string, i int, a, b float64) {
		doc := fmt.Sprintf(`{"runs": [
			{"workload": "a", "trace": 0, "metrics": {"work_per_s": {"value": %v, "unit": "1/s"}}},
			{"workload": "b", "trace": 0, "metrics": {"work_per_s": {"value": %v, "unit": "1/s"}}},
			{"workload": "a", "trace": 1, "metrics": {"trace.coverage": {"value": 1, "unit": "ratio"}}}]}`, a, b)
		writeFile(t, filepath.Join(dir, fmt.Sprintf("%s-%02d.json", side, i)), doc)
	}
	for i := 0; i < 10; i++ {
		run("parent", i, 100+float64(i%3), 50+float64(i%2))
		run("change", i, 120+float64(i%3), 30+float64(i%2))
	}
	var out, errs bytes.Buffer
	code := runArgs(t, []string{"compare", "-benchmark", spec,
		"-parent", filepath.Join(dir, "parent-*.json"), "-change", filepath.Join(dir, "change-*.json")}, &out, &errs)
	if code != 1 {
		t.Errorf("exit code %d with a regression, want 1; stderr %s", code, errs.String())
	}
	for _, want := range []string{"a: work_per_s=gain\n", "b: work_per_s=regression\n"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}

	errs.Reset()
	code = runArgs(t, []string{"compare", "-benchmark", spec,
		"-parent", filepath.Join(dir, "parent-0[0-8].json"), "-change", filepath.Join(dir, "change-0[0-8].json")}, &out, &errs)
	if code != 2 || !strings.Contains(errs.String(), "at least ten") {
		t.Errorf("nine pairs: exit %d, stderr %q; want a refusal", code, errs.String())
	}
}

func runArgs(t *testing.T, args []string, out, errs *bytes.Buffer) int {
	t.Helper()
	return run(t.Context(), args, out, errs)
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
