package experiment

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestToJSONRoundtrip(t *testing.T) {
	sc := Scale{Name: "tiny", Generations: 2, Rounds: 15, Repetitions: 2}
	res, err := runCase(2, sc, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, map[int]*CaseResult{2: res}, 3); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]CaseJSON
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	got, ok := decoded["case2"]
	if !ok {
		t.Fatalf("case2 key missing; keys: %v", keys(decoded))
	}
	if got.CaseID != 2 || got.PathMode != "SP" {
		t.Errorf("case metadata wrong: %+v", got)
	}
	if len(got.CoopMean) != 2 {
		t.Errorf("coop series length %d", len(got.CoopMean))
	}
	if got.Scale.Repetitions != 2 || got.Scale.Name != "tiny" {
		t.Errorf("scale wrong: %+v", got.Scale)
	}
	if len(got.PerEnv) != 1 || got.PerEnv[0].Name != "TE4" {
		t.Errorf("per-env wrong: %+v", got.PerEnv)
	}
	if len(got.TopStrategies) == 0 || len(got.TopStrategies) > 3 {
		t.Errorf("%d top strategies", len(got.TopStrategies))
	}
	// Strategies serialize in the paper's grouped notation.
	if !strings.Contains(got.TopStrategies[0].Strategy, " ") {
		t.Errorf("strategy %q not grouped", got.TopStrategies[0].Strategy)
	}
	// Request books survive the roundtrip.
	total := got.FromNormal.Accepted + got.FromNormal.RejectedByNormal + got.FromNormal.RejectedBySelfish
	if total == 0 {
		t.Error("request counts empty")
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
