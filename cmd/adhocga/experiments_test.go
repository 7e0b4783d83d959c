package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

// End-to-end smoke tests for the experiments subcommand: each artifact path
// runs at a tiny budget and the output byte-compares across identical
// invocations at a fixed seed.

func TestFig4ByteIdenticalAtFixedSeed(t *testing.T) {
	args := []string{"experiments", "-only", "fig4", "-generations", "2", "-rounds", "10", "-reps", "1", "-seed", "9", "-q"}
	code1, out1, err1 := runCLI(t, args...)
	if code1 != 0 {
		t.Fatalf("exit %d, stderr: %s", code1, err1)
	}
	code2, out2, _ := runCLI(t, args...)
	if code2 != 0 {
		t.Fatalf("second run exit %d", code2)
	}
	if out1 != out2 {
		t.Errorf("fixed-seed output differs between runs:\n--- first\n%s\n--- second\n%s", out1, out2)
	}
	if !strings.Contains(out1, "Fig 4") && !strings.Contains(out1, "fig 4") && !strings.Contains(out1, "cooperation") {
		t.Errorf("fig4 output looks empty:\n%s", out1)
	}
}

func TestTablesArtifactRuns(t *testing.T) {
	code, out, errOut := runCLI(t, "experiments", "-only", "table5,table6",
		"-generations", "2", "-rounds", "10", "-reps", "1", "-seed", "11", "-q")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "Table 5") && !strings.Contains(out, "table 5") {
		t.Errorf("table5 output missing:\n%s", out)
	}
}

func TestChurnAndAdversaryArtifactsEndToEnd(t *testing.T) {
	args := []string{"experiments", "-only", "churn,adversaries",
		"-generations", "6", "-rounds", "10", "-reps", "1", "-seed", "5", "-q"}
	code, out, errOut := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{
		"cooperation under churn",
		"recovery after churn",
		"cooperation vs Byzantine adversary fraction",
		"adversaries liars x10",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// Determinism of the new artifacts, byte for byte.
	_, again, _ := runCLI(t, args...)
	if out != again {
		t.Error("churn/adversary artifacts differ between identical runs")
	}
}

func TestMarkdownMode(t *testing.T) {
	code, out, errOut := runCLI(t, "experiments", "-only", "churn", "-markdown",
		"-generations", "6", "-rounds", "10", "-reps", "1", "-q")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "|") {
		t.Errorf("markdown mode produced no tables:\n%s", out)
	}
}

func TestExperimentsHelpExitsZero(t *testing.T) {
	code, _, errOut := runCLI(t, "experiments", "-h")
	if code != 0 {
		t.Errorf("-h exit %d, want 0", code)
	}
	if !strings.Contains(errOut, "-only") {
		t.Errorf("usage text missing from stderr:\n%s", errOut)
	}
}

func TestBadFlagsRejected(t *testing.T) {
	cases := []struct {
		args []string
		frag string
	}{
		{[]string{"-scale", "enormous"}, "unknown scale"},
		{[]string{"-only", "nonsense"}, `unknown artifact "nonsense"`},
		// A misspelled name is rejected, not skipped beside a valid one,
		// and the message lists the valid names.
		{[]string{"-only", "fig4,tabel5"}, `unknown artifact "tabel5" (valid: fig4,table5,table6,table7,table8,table9,churn,adversaries,adversary,all)`},
		{[]string{"-only", " , "}, "nothing to do"},
		{[]string{"-reps", "-1"}, "must be >= 1"},
		{[]string{"-generations", "-5"}, "must be >= 1"},
		{[]string{"-rounds", "0"}, "rounds must be >= 1"},
		// -json only covers the paper cases; a dynamics-only invocation
		// must refuse rather than silently skip the file.
		{[]string{"-only", "churn", "-json", "/tmp/x.json"}, "-json covers the paper cases"},
	}
	for _, tc := range cases {
		code, _, errOut := runCLI(t, append([]string{"experiments"}, tc.args...)...)
		if code != 2 {
			t.Errorf("args %v: exit %d, want 2", tc.args, code)
			continue
		}
		if !strings.Contains(errOut, tc.frag) {
			t.Errorf("args %v: stderr %q missing %q", tc.args, errOut, tc.frag)
		}
	}
}

// TestExperimentsInterruptEmitsPartialSeries pins the SIGINT behavior: a cancelled
// batch exits 130 with the interruption marker instead of dying mid-write.
func TestExperimentsInterruptEmitsPartialSeries(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	var stdout, stderr bytes.Buffer
	code := run(ctx, []string{"experiments", "-only", "fig4", "-generations", "1000000", "-rounds", "10",
		"-reps", "1", "-seed", "8", "-q"}, &stdout, &stderr)
	if code != interruptedExit {
		t.Fatalf("exit %d, want %d (stderr: %s)", code, interruptedExit, stderr.String())
	}
	if !strings.Contains(stdout.String(), "interrupted") {
		t.Errorf("stdout missing the interruption marker:\n%s", stdout.String())
	}
}
