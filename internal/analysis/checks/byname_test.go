package checks_test

// Unit tests for the `lintx -checks` name resolution.

import (
	"testing"

	"webtextie/internal/analysis/checks"
)

func TestByName(t *testing.T) {
	all := checks.All()
	if len(all) != 9 {
		t.Fatalf("All() returns %d analyzers, want 9 (update this test when adding a check)", len(all))
	}
	seen := map[string]bool{}
	for _, az := range all {
		if seen[az.Name] {
			t.Errorf("duplicate analyzer name %q", az.Name)
		}
		seen[az.Name] = true
	}

	t.Run("single", func(t *testing.T) {
		got, unknown := checks.ByName("maprange")
		if len(unknown) != 0 || len(got) != 1 || got[0].Name != "maprange" {
			t.Errorf("got %v unknown=%v", got, unknown)
		}
	})
	t.Run("list preserves order and trims spaces", func(t *testing.T) {
		got, unknown := checks.ByName(" goroleak , maprange ,logcall")
		if len(unknown) != 0 {
			t.Fatalf("unknown = %v", unknown)
		}
		want := []string{"goroleak", "maprange", "logcall"}
		if len(got) != len(want) {
			t.Fatalf("got %d analyzers, want %d", len(got), len(want))
		}
		for i, az := range got {
			if az.Name != want[i] {
				t.Errorf("analyzer %d = %q, want %q", i, az.Name, want[i])
			}
		}
	})
	t.Run("unknown names reported", func(t *testing.T) {
		got, unknown := checks.ByName("maprange,nosuchcheck,alsonot")
		if len(got) != 1 || got[0].Name != "maprange" {
			t.Errorf("got = %v", got)
		}
		if len(unknown) != 2 || unknown[0] != "nosuchcheck" || unknown[1] != "alsonot" {
			t.Errorf("unknown = %v", unknown)
		}
	})
	t.Run("empty segments ignored", func(t *testing.T) {
		got, unknown := checks.ByName(",determinism,,")
		if len(unknown) != 0 || len(got) != 1 || got[0].Name != "determinism" {
			t.Errorf("got %v unknown=%v", got, unknown)
		}
	})
}
