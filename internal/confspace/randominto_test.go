package confspace

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestRandomIntoMatchesRandom pins the flat acquisition-pool sampler to
// its references: for every parameter kind, RandomInto must consume the
// same RNG stream as Random, produce the same values, and produce the
// unit encodings EncodeInto gives for Random's Config — bit for bit —
// and FromValues must rebuild that Config exactly.
func TestRandomIntoMatchesRandom(t *testing.T) {
	mixed := MustSpace(
		BoolParam("bool", false),
		CatParam("cat", 2, "a", "b", "c", "d"),
		IntParam("int", -3, 40, 7),
		LogIntParam("logint", 1, 4096, 64),
		FloatParam("float", 0.25, 3.5, 1),
		Param{Name: "logfloat", Kind: KindFloat, Min: 0.001, Max: 10, Log: true, Def: 0.1},
		IntParam("fixed", 5, 5, 5),
	)
	spark := SparkSpace()
	sub, err := NewSubspace(spark, []string{
		ParamExecutorCores, ParamExecutorMemoryMB, ParamShuffleCompress,
		ParamCompressionCodec, ParamMemoryFraction, ParamLocalityWait,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		space *Space
		// encode is the reference encoding of a Random draw.
		encode func(Config) []float64
	}{
		{"mixed", mixed, mixed.Encode},
		{"spark", spark, spark.Encode},
		{"subspace", sub.Space(), func(c Config) []float64 { return sub.Encode(sub.Lift(c)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dim := tc.space.Dim()
			vals, unit := make([]float64, dim), make([]float64, dim)
			for seed := int64(1); seed <= 20; seed++ {
				ref, got := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				for draw := 0; draw < 25; draw++ {
					want := tc.space.Random(ref)
					wantUnit := tc.encode(want)
					tc.space.RandomInto(got, vals, unit)
					for i, p := range tc.space.Params() {
						if math.Float64bits(vals[i]) != math.Float64bits(want[p.Name]) {
							t.Fatalf("seed %d draw %d %s: value %v, Random gave %v", seed, draw, p.Name, vals[i], want[p.Name])
						}
						if math.Float64bits(unit[i]) != math.Float64bits(wantUnit[i]) {
							t.Fatalf("seed %d draw %d %s: unit %v, EncodeInto gave %v", seed, draw, p.Name, unit[i], wantUnit[i])
						}
					}
					if cfg := tc.space.FromValues(vals); !reflect.DeepEqual(cfg, want) {
						t.Fatalf("seed %d draw %d: FromValues %v != Random %v", seed, draw, cfg, want)
					}
				}
				if a, b := ref.Int63(), got.Int63(); a != b {
					t.Fatalf("seed %d: RNG streams diverged (%d vs %d)", seed, a, b)
				}
			}
		})
	}
}
