package experiment

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"adhocga/internal/runner"
	"adhocga/internal/scenario"
	"adhocga/internal/strategy"
)

// runCase runs Table 4 case id the way every case now runs: as a
// one-scenario batch whose master seed is pinned to opts.Seed.
func runCase(id int, sc Scale, opts Options) (*CaseResult, error) {
	out, err := runScenarios([]ScenarioRun{{Spec: scenario.Table4()[id-1], Seed: opts.Seed}}, sc, opts)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

func TestCasesMatchTable4(t *testing.T) {
	specs := scenario.Table4()
	if len(specs) != 4 {
		t.Fatalf("%d cases", len(specs))
	}
	type shape struct {
		csn  []int
		mode string
	}
	want := []shape{
		{[]int{0}, "SP"},             // case 1: only TE1 (0 CSN)
		{[]int{30}, "SP"},            // case 2: only the 30-CSN environment
		{[]int{0, 10, 25, 30}, "SP"}, // case 3: all four environments
		{[]int{0, 10, 25, 30}, "LP"}, // case 4: all four, longer paths
	}
	for i, spec := range specs {
		mode, err := spec.Mode()
		if err != nil {
			t.Fatal(err)
		}
		got := shape{mode: mode.Name}
		for _, env := range spec.Envs() {
			got.csn = append(got.csn, env.CSN)
		}
		if spec.ID != i+1 || !reflect.DeepEqual(got, want[i]) {
			t.Errorf("case %d = id %d %+v, want %+v", i+1, spec.ID, got, want[i])
		}
	}
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"smoke", "default", "paper"} {
		sc, err := ScaleByName(name)
		if err != nil || sc.Name != name {
			t.Errorf("ScaleByName(%q) = %+v, %v", name, sc, err)
		}
	}
	if _, err := ScaleByName("huge"); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestPaperScaleMatchesSection61(t *testing.T) {
	if PaperScale.Generations != 500 || PaperScale.Rounds != 300 || PaperScale.Repetitions != 60 {
		t.Errorf("paper scale = %+v", PaperScale)
	}
}

func TestRunCaseSmoke(t *testing.T) {
	sc := Scale{Name: "tiny", Generations: 3, Rounds: 20, Repetitions: 3}
	res, err := runCase(1, sc, Options{Seed: 1, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CoopMean) != 3 {
		t.Errorf("coop series length %d", len(res.CoopMean))
	}
	if res.FinalCoop.N != 3 {
		t.Errorf("final coop sample size %d", res.FinalCoop.N)
	}
	if censusTotal(res.Census) != 3*100 {
		t.Errorf("census total %d, want 300", censusTotal(res.Census))
	}
	if len(res.PerEnv) != 1 || res.PerEnv[0].Name != "TE1" {
		t.Errorf("per-env = %+v", res.PerEnv)
	}
	for g, v := range res.CoopMean {
		if v < 0 || v > 1 {
			t.Errorf("coop[%d] = %v", g, v)
		}
	}
	// Case 1 has no CSN: every path is CSN-free and no request can be
	// rejected by a CSN.
	if res.PerEnv[0].CSNFree.Mean != 1 {
		t.Errorf("CSN-free fraction %v in CSN-free case", res.PerEnv[0].CSNFree.Mean)
	}
	if res.FromNormal.RejectedBySelfish != 0 || res.FromCSN.Total() != 0 {
		t.Errorf("impossible request counts: %+v / %+v", res.FromNormal, res.FromCSN)
	}
}

func TestRunCaseDeterministicAcrossParallelism(t *testing.T) {
	sc := Scale{Name: "tiny", Generations: 2, Rounds: 15, Repetitions: 4}
	seq, err := runCase(2, sc, Options{Seed: 9, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := runCase(2, sc, Options{Seed: 9, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for g := range seq.CoopMean {
		if seq.CoopMean[g] != par.CoopMean[g] {
			t.Fatalf("parallelism changed results at generation %d: %v vs %v",
				g, seq.CoopMean[g], par.CoopMean[g])
		}
	}
	if seq.FromNormal != par.FromNormal || seq.FromCSN != par.FromCSN {
		t.Error("parallelism changed request counts")
	}
}

func TestRunCaseProgressCallback(t *testing.T) {
	sc := Scale{Name: "tiny", Generations: 2, Rounds: 10, Repetitions: 3}
	emit, seen := replicateCounter(t, 3)
	_, err := RunScenarios(context.Background(), runner.NewPool(1), []ScenarioRun{{Spec: scenario.Table4()[0], Seed: 3}}, sc, Options{Seed: 3, Parallelism: 1}, emit)
	if err != nil {
		t.Fatal(err)
	}
	if calls, last := seen(); calls != 3 || last != 3 {
		t.Errorf("callback calls=%d last=%d", calls, last)
	}
}

func TestRunCaseRejectsZeroReps(t *testing.T) {
	if _, err := runCase(1, Scale{Name: "bad"}, Options{}); err == nil {
		t.Error("zero repetitions accepted")
	}
}

func smokeResults(t *testing.T) map[int]*CaseResult {
	t.Helper()
	sc := Scale{Name: "tiny", Generations: 2, Rounds: 15, Repetitions: 2}
	out := make(map[int]*CaseResult)
	for id := 1; id <= 4; id++ {
		res, err := runCase(id, sc, Options{Seed: uint64(id)})
		if err != nil {
			t.Fatal(err)
		}
		out[id] = res
	}
	return out
}

func TestTableRendering(t *testing.T) {
	results := smokeResults(t)
	fig4 := Fig4Table(results).Render()
	for _, want := range []string{"case 1", "case 4", "97.0%", "19.0%"} {
		if !strings.Contains(fig4, want) {
			t.Errorf("Fig4 table missing %q:\n%s", want, fig4)
		}
	}
	chart := Fig4Chart(results)
	if !strings.Contains(chart, "case 1") || !strings.Contains(chart, "case 4") {
		t.Errorf("Fig4 chart missing series:\n%s", chart)
	}
	t5 := Table5(results[3], results[4]).Render()
	for _, want := range []string{"TE1", "TE4", "99.0%", "66.0%"} {
		if !strings.Contains(t5, want) {
			t.Errorf("Table 5 missing %q:\n%s", want, t5)
		}
	}
	t6 := Table6(results[3], results[4]).Render()
	for _, want := range []string{"accepted", "rejected by NP", "rejected by CSN", "77.0%"} {
		if !strings.Contains(t6, want) {
			t.Errorf("Table 6 missing %q:\n%s", want, t6)
		}
	}
	t7 := Table7(results[3], results[4]).Render()
	if !strings.Contains(t7, "1") || len(strings.Split(t7, "\n")) < 7 {
		t.Errorf("Table 7 too small:\n%s", t7)
	}
	t8 := Table8(results[3]).Render()
	if !strings.Contains(t8, "trust 3") {
		t.Errorf("Table 8 missing trust columns:\n%s", t8)
	}
	t9 := Table9(results[4]).Render()
	if !strings.Contains(t9, "trust 0") {
		t.Errorf("Table 9 missing trust columns:\n%s", t9)
	}
}

func TestTablesHandleNilResults(t *testing.T) {
	// Partial runs must not panic.
	_ = Table5(nil, nil).Render()
	_ = Table6(nil, nil).Render()
	_ = Table7(nil, nil).Render()
	_ = Table8(nil).Render()
	_ = Table9(nil).Render()
	_ = Fig4Table(map[int]*CaseResult{}).Render()
	_ = Fig4Chart(map[int]*CaseResult{})
}

// censusTotal counts the occurrences a census recorded.
func censusTotal(c *strategy.Census) int {
	total := 0
	for _, e := range c.Top(math.MaxInt) {
		total += e.Count
	}
	return total
}
