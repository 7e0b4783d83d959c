package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Load reads one spec or a JSON array of specs and validates each. Both
// forms are accepted so a scenario file can grow from a single experiment
// into a batch without changing shape.
func Load(r io.Reader) ([]Spec, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("scenario: read: %w", err)
	}
	trimmed := bytes.TrimSpace(data)
	var specs []Spec
	if len(trimmed) > 0 && trimmed[0] == '[' {
		if err := strictUnmarshal(trimmed, &specs); err != nil {
			return nil, fmt.Errorf("scenario: parse list: %w", err)
		}
	} else {
		var s Spec
		if err := strictUnmarshal(trimmed, &s); err != nil {
			return nil, fmt.Errorf("scenario: parse: %w", err)
		}
		specs = []Spec{s}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("scenario: empty spec list")
	}
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// strictUnmarshal rejects unknown fields so a typo in a hand-written spec
// ("generation": 100) fails loudly instead of silently running defaults,
// and rejects trailing content so concatenated specs (instead of a JSON
// array) cannot silently drop every spec after the first.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return fmt.Errorf("trailing data after the JSON value (use an array for multiple specs)")
	}
	return nil
}

// LoadFile loads specs from a JSON file.
func LoadFile(path string) ([]Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	specs, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return specs, nil
}

// FromArg resolves a CLI scenario argument: a path to a JSON spec file if
// one exists there, otherwise a registered family name, otherwise a
// registered scenario name.
func FromArg(arg string) ([]Spec, error) {
	if info, err := os.Stat(arg); err == nil && !info.IsDir() {
		return LoadFile(arg)
	}
	if f, err := FamilyByName(arg); err == nil {
		return f.Specs(), nil
	}
	if s, err := SpecByName(arg); err == nil {
		return []Spec{s}, nil
	}
	return nil, fmt.Errorf("scenario: %q is neither a spec file, a family, nor a scenario name (families: %s)",
		arg, familyNames())
}
