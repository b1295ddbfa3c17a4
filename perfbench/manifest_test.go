package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestManifestMatchesBenchmark holds BENCHMARK.json at the repository
// root to what the benchmark reports: the same workloads and the same
// metric names and units, in both sets.
func TestManifestMatchesBenchmark(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var m struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(m.Workloads), len(workloads))
	}
	for _, e := range m.Workloads {
		if _, err := lookupWorkload(e.Name); err != nil {
			t.Error(err)
		}
	}
	for _, set := range []struct {
		name string
		got  []entry
		want []metricDef
	}{{"end_to_end", m.EndToEnd, endToEnd}, {"per_layer", m.PerLayer, perLayer}} {
		if len(set.got) != len(set.want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark reports %d", set.name, len(set.got), len(set.want))
			continue
		}
		for i, d := range set.want {
			if set.got[i].Name != d.name || set.got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)",
					set.name, i, set.got[i].Name, set.got[i].Unit, d.name, d.unit)
			}
		}
	}
}
