package main

import (
	"strings"
	"testing"
)

// Recorded output of one fixed-seed mix per path mode. Everything is
// seeded, so any drift here is a behavior change in the game kernel.
const (
	goldenSP = `cooperation level (normal-originated delivery): 32.3%
CSN delivery rate: 15.2%

per-group outcomes
group          delivery  fitness  forward share
-----------------------------------------------
all-cooperate  33.8%     1.366    100.0%
trust>=1       40.4%     1.819    70.6%
all-defect     13.2%     1.493    0.0%
`
	goldenLP = `cooperation level (normal-originated delivery): 16.2%
CSN delivery rate: 6.0%

per-group outcomes
group          delivery  fitness  forward share
-----------------------------------------------
all-cooperate  20.2%     1.152    100.0%
trust>=1       16.6%     1.47     70.2%
all-defect     7.2%      1.46     0.0%
`
)

func TestMixGolden(t *testing.T) {
	base := []string{"-mix", "all-cooperate:10,trust>=1:10,all-defect:5", "-csn", "10", "-rounds", "50", "-seed", "7"}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"SP", base, goldenSP},
		{"LP", append(base[:len(base):len(base)], "-mode", "LP"), goldenLP},
		{"lp", append(base[:len(base):len(base)], "-mode", "lp"), goldenLP},
		// Case 4 is LP with 0 CSN first: explicit flags beat the spec,
		// unset ones take its values.
		{"scenario+mode", append(base[:len(base):len(base)], "-scenario", "case 4 (TE1-4, LP)", "-mode", "SP"), goldenSP},
		{"scenario", append(base[:len(base):len(base)], "-scenario", "case 4 (TE1-4, LP)"), goldenLP},
	} {
		code, out, errOut := runCLI(t, append([]string{"sim"}, tc.args...)...)
		if code != 0 {
			t.Fatalf("%s: exit %d, stderr: %s", tc.name, code, errOut)
		}
		if out != tc.want {
			t.Errorf("%s: stdout differs from golden:\n--- got\n%s\n--- want\n%s", tc.name, out, tc.want)
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for name, tc := range map[string]struct {
		args []string
		code int
		msg  string
	}{
		"unknown mode": {[]string{"-mode", "XP"}, 2, "-mode must be SP or LP"},
		"negative csn": {[]string{"-csn", "-3"}, 2, "-csn must be >= 0"},
		"negative mix": {[]string{"-mix", "all-cooperate:-5"}, 2, "negative group count"},
		"bad mix":      {[]string{"-mix", "nonsense:3"}, 2, "nonsense:3"},
		"bad scenario": {[]string{"-scenario", "table4"}, 2, "need exactly one"},
		"unknown flag": {[]string{"-energy"}, 2, "-energy"},
	} {
		code, out, errOut := runCLI(t, append([]string{"sim"}, tc.args...)...)
		if code != tc.code || !strings.Contains(errOut, tc.msg) || out != "" {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit %d mentioning %q",
				name, code, out, errOut, tc.code, tc.msg)
		}
	}
}

func TestListProfiles(t *testing.T) {
	code, out, errOut := runCLI(t, "sim", "-list")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"built-in profiles", "all-cooperate", "trust>=2"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing %q:\n%s", want, out)
		}
	}
}

func TestParseMixProfiles(t *testing.T) {
	groups, err := parseMix("all-cooperate:10,trust>=1:5")
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("%d groups", len(groups))
	}
	if groups[0].Profile.Name != "all-cooperate" || groups[0].Count != 10 {
		t.Errorf("group 0 = %+v", groups[0])
	}
	if groups[1].Profile.Name != "trust>=1" || groups[1].Count != 5 {
		t.Errorf("group 1 = %+v", groups[1])
	}
}

func TestParseMixRawStrategy(t *testing.T) {
	groups, err := parseMix("0101011011111:3")
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 || groups[0].Count != 3 {
		t.Fatalf("groups = %+v", groups)
	}
	if groups[0].Profile.Strategy.String() != "010 101 101 111 1" {
		t.Errorf("strategy = %s", groups[0].Profile.Strategy)
	}
}

func TestParseMixToleratesSpacesAndEmpties(t *testing.T) {
	groups, err := parseMix(" all-defect:2 , ,")
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 || groups[0].Profile.Name != "all-defect" {
		t.Errorf("groups = %+v", groups)
	}
}

func TestParseMixErrors(t *testing.T) {
	cases := []string{
		"",                // empty
		"all-cooperate",   // no count
		"all-cooperate:x", // bad count
		"nonsense:3",      // neither profile nor strategy
		"01010:3",         // wrong strategy length
	}
	for _, s := range cases {
		if _, err := parseMix(s); err == nil {
			t.Errorf("parseMix(%q) succeeded, want error", s)
		}
	}
}

// The profile name containing ':' must still parse because we split on the
// LAST colon.
func TestParseMixColonInName(t *testing.T) {
	groups, err := parseMix("trust>=2:4")
	if err != nil {
		t.Fatal(err)
	}
	if groups[0].Profile.Name != "trust>=2" || groups[0].Count != 4 {
		t.Errorf("groups = %+v", groups)
	}
}

func TestApplyScenarioDefaults(t *testing.T) {
	// Unset flags pick up the scenario's values; note case 4 is LP with
	// TE1 (0 CSN) first.
	unset := &command{csn: 10, rounds: 300, mode: "SP"}
	if err := applyScenario(unset, "case 4 (TE1-4, LP)"); err != nil {
		t.Fatal(err)
	}
	if unset.csn != 0 || unset.mode != "LP" {
		t.Errorf("csn=%d mode=%q, want scenario defaults 0/LP", unset.csn, unset.mode)
	}
	// The table4 specs leave rounds to the run scale, so the flag default
	// must survive.
	if unset.rounds != 300 {
		t.Errorf("rounds=%d, want flag default 300", unset.rounds)
	}
	if err := applyScenario(unset, "no such scenario anywhere"); err == nil {
		t.Error("unknown scenario accepted")
	}
	if err := applyScenario(unset, "table4"); err == nil {
		t.Error("multi-scenario family accepted; sim needs exactly one")
	}
}
