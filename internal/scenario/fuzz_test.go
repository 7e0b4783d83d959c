package scenario

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzLoad drives the JSON spec decoder with arbitrary bytes: it must
// never panic, and everything it accepts must validate, survive a
// save→Load round trip unchanged, and build (or cleanly refuse to build)
// an engine configuration. CI runs this with a short -fuzztime smoke on
// top of the checked-in corpus (testdata/fuzz); locally run e.g.
//
//	go test -fuzz FuzzLoad -fuzztime 30s ./internal/scenario/
func FuzzLoad(f *testing.F) {
	f.Add([]byte(`{"name":"x","environments":[{"csn":10}]}`))
	f.Add([]byte(`[{"name":"a","environments":[{"csn":0}]},{"name":"b","environments":[{"name":"TE4","csn":30}],"path_mode":"LP"}]`))
	f.Add([]byte(`{"name":"isl","environments":[{"csn":5}],"population":200,"islands":{"count":4,"topology":"ring","interval":10,"migrants":2}}`))
	f.Add([]byte(`{"name":"dyn","environments":[{"csn":10}],"dynamics":{"interval":5,"churn_rate":0.2,"rewire_prob":0.5,"free_riders":2,"liars":2,"on_off":2},"gossip":{"interval":10}}`))
	f.Add([]byte(`{"name":"ga","environments":[{"csn":0}],"ga":{"selection_tournament":4,"crossover_prob":0.7,"mutation_prob":0.01,"elitism":2}}`))
	f.Add([]byte(`{"name":"bad","environments":[{"csn":-3}]}`))
	f.Add([]byte(`{"nmae":"typo","environments":[{"csn":1}]}`))
	f.Add([]byte(`{"name":"trail","environments":[{"csn":1}]}{"name":"x"}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`not json at all`))
	f.Fuzz(func(t *testing.T, data []byte) {
		specs, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(specs) == 0 {
			t.Fatal("Load accepted input but returned no specs")
		}
		for _, s := range specs {
			// Load promises validated specs.
			if err := s.Validate(); err != nil {
				t.Fatalf("Load returned invalid spec %q: %v", s.Name, err)
			}
			// Building a config must never panic; errors are fine (the
			// structural Validate cannot see parameter interactions).
			if s.Islands != nil {
				_, _ = s.IslandConfig(1)
			} else {
				_, _ = s.Config(1)
			}
		}
		// save→Load round trip: the serialized form decodes to the same
		// specs.
		var buf bytes.Buffer
		if err := save(&buf, specs); err != nil {
			t.Fatalf("saving loaded specs: %v", err)
		}
		again, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round trip failed to load: %v\nserialized: %s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(specs, again) {
			a, _ := json.Marshal(specs)
			b, _ := json.Marshal(again)
			t.Fatalf("round trip changed the specs:\n before %s\n after  %s", a, b)
		}
	})
}
