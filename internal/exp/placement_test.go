package exp

import (
	"strings"
	"testing"
)

// TestSetPlacementOverride: Env.Placement rebuilds an experiment under the
// policy, tags its artifact, and renames the file so the committed cap
// baseline is never clobbered.
func TestSetPlacementOverride(t *testing.T) {
	if err := (Env{Placement: "bogus"}).Validate(); err == nil {
		t.Fatal("bad placement spec accepted")
	}
	env := Env{Placement: "throughput"}
	art, _, err := env.Run("e9", 7)
	if err != nil {
		t.Fatal(err)
	}
	if art.Placement != "throughput" {
		t.Fatalf("artifact placement tag %q, want throughput", art.Placement)
	}
	dir := t.TempDir()
	path, err := art.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(path, "@place=throughput") {
		t.Fatalf("placed artifact path %q lacks the @place= tag", path)
	}

	// E23 pins its own policies per row; the override must not reach it,
	// and its artifact must keep the baseline name.
	art, _, err = env.Run("e23", 7)
	if err != nil {
		t.Fatal(err)
	}
	if art.Placement != "" {
		t.Fatalf("pinned experiment tagged with the override: %q", art.Placement)
	}
}

// TestE24ArtifactCarriesSpeculationWords: the E24 artifact must expose the
// speculation traffic in its model stats (the wire format the CI smoke
// step checks).
func TestE24ArtifactCarriesSpeculationWords(t *testing.T) {
	art, _, err := Env{}.Run("e24", 7)
	if err != nil {
		t.Fatal(err)
	}
	if art.Model.SpeculationWords == 0 {
		t.Fatalf("speculation words missing from model stats: %+v", art.Model)
	}
}
