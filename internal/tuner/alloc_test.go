package tuner

import (
	"testing"

	"seamlesstune/internal/confspace"
	"seamlesstune/internal/stat"
)

// TestBayesOptNextAllocsIndependentOfPool pins the acquisition step's
// allocation count: the candidate pool lives in flat buffers reused
// across calls and only the winner becomes a Config, so a modelled Next
// over a fixed, fitted 45-point history allocates a small constant — the
// same at 500 and 2000 candidates — rather than several maps per
// candidate.
func TestBayesOptNextAllocsIndependentOfPool(t *testing.T) {
	const maxAllocs = 40
	space := confspace.SparkSubspace(12)
	allocs := func(candidates int) float64 {
		rng := stat.NewRNG(3)
		bo := NewBayesOpt(space)
		bo.Candidates = candidates
		for i := 0; i < 45; i++ {
			cfg := space.Random(rng)
			y := 1.0
			for _, e := range space.Encode(cfg) {
				y += (e - 0.4) * (e - 0.4)
			}
			bo.Observe(Trial{Index: i, Config: cfg, Measurement: Measurement{Runtime: y}, Objective: y})
		}
		bo.Next(rng) // fit the model and size the scratch buffers
		if !bo.eiValid {
			t.Fatal("warm-up proposal was not modelled")
		}
		return testing.AllocsPerRun(20, func() { bo.Next(rng) })
	}
	small, large := allocs(500), allocs(2000)
	if small > maxAllocs || large > maxAllocs {
		t.Errorf("Next allocates %v (500 candidates) / %v (2000 candidates) per call, want <= %d independent of pool size",
			small, large, maxAllocs)
	}
}
