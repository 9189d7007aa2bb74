package main

import (
	"strings"
	"testing"

	"bedom/internal/exp"
)

// TestSelectExperiments checks -exp selection, and that one mistyped id
// fails the whole selection instead of silently running less.
func TestSelectExperiments(t *testing.T) {
	suite := exp.All()
	all, err := selectExperiments(suite, "")
	if err != nil || len(all) != len(suite) {
		t.Fatalf("empty list: %d experiments, %v", len(all), err)
	}
	got, err := selectExperiments(suite, "e10, E3")
	if err != nil || len(got) != 2 || got[0].ID != "E3" || got[1].ID != "E10" {
		t.Fatalf("E3,E10: %v, %v", got, err)
	}
	for only, unknown := range map[string]string{"E3,E99": "E99", "E99": "E99", "L1": "L1"} {
		_, err := selectExperiments(suite, only)
		if err == nil || !strings.Contains(err.Error(), "unknown experiment "+unknown) {
			t.Fatalf("%q: want an error naming %s, got %v", only, unknown, err)
		}
		for _, e := range suite {
			if !strings.Contains(err.Error(), e.ID) {
				t.Fatalf("%q: error %q does not list %s", only, err, e.ID)
			}
		}
	}
	if _, err := selectExperiments(exp.Scale(), "E3"); err == nil || !strings.Contains(err.Error(), "(experiments: L1)") {
		t.Fatalf("E3 in the large tier: %v", err)
	}
}
