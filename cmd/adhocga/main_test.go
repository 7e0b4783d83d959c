package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// runCLI invokes the CLI seam with args (the subcommand first) and returns
// (exit code, stdout, stderr).
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestDispatchUsageErrors pins that a missing or unknown subcommand is a
// usage error whose message names every subcommand.
func TestDispatchUsageErrors(t *testing.T) {
	for _, args := range [][]string{nil, {"evolution"}, {"-case", "1"}} {
		code, out, errOut := runCLI(t, args...)
		if code != 2 || out != "" {
			t.Errorf("args %q: exit %d, stdout %q; want exit 2 and no stdout", args, code, out)
		}
		for _, sub := range []string{"evolve", "experiments", "league", "sim"} {
			if !strings.Contains(errOut, sub) {
				t.Errorf("args %q: usage on stderr does not name %q:\n%s", args, sub, errOut)
			}
		}
	}
}

// TestDispatchHelpExitsZero pins that help, at the top level and for
// each subcommand, is a successful invocation that prints usage.
func TestDispatchHelpExitsZero(t *testing.T) {
	for _, args := range [][]string{
		{"-h"}, {"--help"}, {"help"},
		{"evolve", "-h"}, {"experiments", "-h"}, {"league", "-h"}, {"sim", "-h"},
	} {
		code, out, errOut := runCLI(t, args...)
		if code != 0 || out != "" {
			t.Errorf("args %q: exit %d, stdout %q; want exit 0 and no stdout", args, code, out)
		}
		if !strings.Contains(strings.ToLower(errOut), "usage") {
			t.Errorf("args %q: no usage on stderr:\n%s", args, errOut)
		}
	}
}

// TestSharedFlagsKeepSubcommandDefaults pins the defaults each subcommand
// gives the shared flags: goldens depend on them (league's -rounds 100,
// for one), so the shared registration must not unify them.
func TestSharedFlagsKeepSubcommandDefaults(t *testing.T) {
	for _, tc := range []struct {
		sub  string
		want []string
	}{
		{"evolve", []string{"-generations int", "(default 80)", "-rounds int", "(default 150)", "-reps int", "(default 4)", "-seed uint", "(default 1)"}},
		{"experiments", []string{"-seed uint", "(default 2007)"}},
		{"league", []string{"(default 40)", "(default 100)", "(default 2)", `-mode string`, `(default "SP")`}},
		{"sim", []string{"-csn int", "(default 10)", "(default 300)", `(default "SP")`}},
	} {
		_, _, errOut := runCLI(t, tc.sub, "-h")
		for _, w := range tc.want {
			if !strings.Contains(errOut, w) {
				t.Errorf("%s -h missing %q:\n%s", tc.sub, w, errOut)
			}
		}
	}
}
