package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"adhocga/internal/league"
)

// TestOutputGolden pins stdout byte for byte against files recorded from
// the CLI: a baselines-only league as text and as JSON, and a one-shot
// harvest-then-league run.
func TestOutputGolden(t *testing.T) {
	for _, tc := range []struct {
		file string
		args []string
	}{
		{"baselines-seed7.stdout", []string{"-baselines", "-seed", "7"}},
		{"baselines-seed7.json", []string{"-baselines", "-seed", "7", "-json"}},
		{"harvest-case1-seed3.json", []string{"-harvest", "-case", "1", "-generations", "6", "-reps", "1",
			"-checkpoints", "2", "-rounds", "20", "-baselines", "-seed", "3", "-json"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		code, out, errOut := runCLI(t, append([]string{"league"}, tc.args...)...)
		if code != 0 {
			t.Fatalf("%s: exit %d, stderr: %s", tc.file, code, errOut)
		}
		if out != string(want) {
			t.Errorf("%s: stdout differs from golden:\n--- got\n%s\n--- want\n%s", tc.file, out, want)
		}
	}
}

func TestBaselinesOnlyLeague(t *testing.T) {
	code, out, errOut := runCLI(t, "league",
		"-baselines", "-per-side", "2", "-rounds", "10", "-matches", "1", "-seed", "7")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"league table (3 seats, 3 matches, seed 7)", "winner:", "head-to-head"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestJSONOutputDeterministic(t *testing.T) {
	args := []string{"league", "-baselines", "-per-side", "2", "-rounds", "10", "-matches", "1", "-seed", "7", "-json"}
	_, first, _ := runCLI(t, args...)
	code, second, errOut := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if first != second {
		t.Fatalf("JSON output not deterministic:\n%s\n%s", first, second)
	}
	if !strings.Contains(first, `"standings"`) || !strings.Contains(first, `"head_to_head"`) {
		t.Fatalf("JSON output missing table fields:\n%s", first)
	}
}

// TestHarvestListLeague drives the full pipeline against a file-backed
// archive: harvest champions from a tiny checkpointed run, list them from
// a fresh process (restart), and play the league over the reopened
// archive.
func TestHarvestListLeague(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "hof")
	code, out, errOut := runCLI(t, "league",
		"-archive", dir, "-harvest", "-case", "1",
		"-generations", "4", "-reps", "1", "-checkpoints", "2",
		"-rounds", "10", "-list", "-seed", "1")
	if code != 0 {
		t.Fatalf("harvest exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "champion archive (file") {
		t.Fatalf("list output missing archive header:\n%s", out)
	}
	if !strings.Contains(out, "/case 1 (TE1, SP)/r0/g0") {
		t.Fatalf("list output missing generation-0 champion:\n%s", out)
	}

	code, out, errOut = runCLI(t, "league",
		"-archive", dir, "-baselines", "-per-side", "2", "-rounds", "10", "-matches", "1", "-seed", "7")
	if code != 0 {
		t.Fatalf("league exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "winner:") || !strings.Contains(out, "champion/") {
		t.Fatalf("league output missing champions:\n%s", out)
	}
}

// TestSeatChampionByID harvests into an archive, then seats a single
// champion by its exact ID — which, like every Table 4 champion ID,
// contains a comma — next to the baselines.
func TestSeatChampionByID(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "hof")
	code, _, errOut := runCLI(t, "league",
		"-archive", dir, "-harvest", "-case", "1",
		"-generations", "4", "-reps", "1", "-checkpoints", "2",
		"-rounds", "10", "-list", "-seed", "1")
	if code != 0 {
		t.Fatalf("harvest exit %d, stderr: %s", code, errOut)
	}

	const id = "job-1/case 1 (TE1, SP)/r0/g2"
	code, out, errOut := runCLI(t, "league",
		"-archive", dir, "-ids", id, "-baselines",
		"-per-side", "2", "-rounds", "10", "-matches", "1", "-seed", "7", "-json")
	if code != 0 {
		t.Fatalf("league exit %d, stderr: %s", code, errOut)
	}
	var table struct {
		Seats []string `json:"seats"`
	}
	if err := json.Unmarshal([]byte(out), &table); err != nil {
		t.Fatalf("decode table: %v\n%s", err, out)
	}
	want := []string{"champion/" + id, "baseline/all-forward", "baseline/never-forward", "baseline/paper-winner"}
	if !reflect.DeepEqual(table.Seats, want) {
		t.Fatalf("seats = %q, want %q", table.Seats, want)
	}
}

// TestLeagueRejectsUnseatableLeague: a league naming a champion the
// archive does not hold, seating fewer than two, or seating one twice
// exits 2 with the words adhocd's 400 carries for the same league.
func TestLeagueRejectsUnseatableLeague(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "hof")
	arch, err := league.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	champ := league.Champion{ID: league.ChampionID("job-1", "x", 0, 1), Genome: "0101011011111"}
	if err := champ.Fill(); err != nil {
		t.Fatal(err)
	}
	if err := arch.Put(champ); err != nil {
		t.Fatal(err)
	}
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-ids", "nope/x/r0/g1", "-baselines"}, `league: unknown champion "nope/x/r0/g1"`},
		{[]string{"-ids", "job-1/x/r0/g1"}, "league: only 1 seats (archive has 1 champions; add baselines or harvest champions)"},
		{[]string{"-ids", "job-1/x/r0/g1", "-ids", "job-1/x/r0/g1"}, `league: duplicate seat "champion/job-1/x/r0/g1"`},
	} {
		code, _, errOut := runCLI(t, append([]string{"league", "-archive", dir}, tc.args...)...)
		if code != 2 || !strings.Contains(errOut, tc.want) {
			t.Errorf("%q: exit %d, stderr %q; want exit 2 saying %s", tc.args, code, errOut, tc.want)
		}
	}
}

func TestBadInvocations(t *testing.T) {
	for name, tc := range map[string]struct {
		args []string
		code int
	}{
		"bad path mode":     {[]string{"-baselines", "-mode", "XX"}, 2},
		"no seats":          {[]string{"-per-side", "2"}, 2},
		"unknown champion":  {[]string{"-baselines", "-ids", "no/such/champion"}, 2},
		"bad harvest case":  {[]string{"-harvest", "-case", "9", "-baselines"}, 2},
		"zero harvest gens": {[]string{"-harvest", "-generations", "0", "-baselines"}, 2},
		"bad league config": {[]string{"-baselines", "-per-side", "-1"}, 2},
	} {
		if code, _, errOut := runCLI(t, append([]string{"league"}, tc.args...)...); code != tc.code {
			t.Errorf("%s: exit %d, want %d (stderr: %s)", name, code, tc.code, errOut)
		}
	}
}
