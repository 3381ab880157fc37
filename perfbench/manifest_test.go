package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestManifestMatchesResultLines pins BENCHMARK.json's metric lists to the
// metrics the result lines carry, in name and unit.
func TestManifestMatchesResultLines(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		list string
		got  []struct{ Name, Unit string }
		want []metricDef
	}{
		{"end_to_end", m.EndToEnd, endToEnd},
		{"per_layer", m.PerLayer, perLayer()},
	} {
		if len(tc.got) != len(tc.want) {
			t.Errorf("%s lists %d metrics, the result line has %d", tc.list, len(tc.got), len(tc.want))
			continue
		}
		for i, d := range tc.want {
			if tc.got[i].Name != d.name || tc.got[i].Unit != d.unit {
				t.Errorf("%s[%d] is %s in %s, the result line has %s in %s", tc.list, i, tc.got[i].Name, tc.got[i].Unit, d.name, d.unit)
			}
		}
	}
}

// TestEmitRefusesAMissingMetric checks that a run which did not set every
// metric of its result line prints no result.
func TestEmitRefusesAMissingMetric(t *testing.T) {
	rep := newReport()
	rep.set("setup_s", 1.5, "s")
	if code := emit(rep, []metricDef{{"setup_s", "s"}, {"peak_rss_mb", "MB"}}); code == 0 {
		t.Fatal("emit printed a result without peak_rss_mb")
	}
	if code := emit(rep, []metricDef{{"setup_s", "ms"}}); code == 0 {
		t.Fatal("emit printed setup_s in the wrong unit")
	}
}
