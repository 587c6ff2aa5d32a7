package confspace

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// Config is one point in a search space: parameter name → value. Booleans
// are 0/1, categoricals are choice indices, integers are whole floats.
type Config map[string]float64

// Clone returns a deep copy.
func (c Config) Clone() Config {
	out := make(Config, len(c))
	for k, v := range c {
		out[k] = v
	}
	return out
}

// Canonical renders the config as a deterministic string: names sorted,
// values in exact hexadecimal float notation, so two configs canonicalize
// equally iff they are bit-identical. It is the stable identity used for
// content-derived evaluation seeds (tuner.CandidateSeed) and therefore
// for simulator-cache hits on revisited points.
func (c Config) Canonical() string {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(strconv.FormatFloat(c[k], 'x', -1, 64))
	}
	return b.String()
}

// Int reads a parameter as an integer (rounding).
func (c Config) Int(name string) int { return int(math.Round(c[name])) }

// Float reads a parameter as a float.
func (c Config) Float(name string) float64 { return c[name] }

// Bool reads a parameter as a boolean.
func (c Config) Bool(name string) bool { return c[name] >= 0.5 }

// ErrUnknownParam is returned when a config carries a name the space does
// not declare, or a lookup misses.
var ErrUnknownParam = errors.New("confspace: unknown parameter")

// ErrInvalidValue is returned when a config value is outside its domain.
var ErrInvalidValue = errors.New("confspace: value outside parameter domain")

// Space is an ordered, immutable set of parameters.
type Space struct {
	params []Param
	index  map[string]int
}

// NewSpace builds a space from parameter declarations. Names must be
// unique and each declaration valid.
func NewSpace(params ...Param) (*Space, error) {
	s := &Space{
		params: append([]Param(nil), params...),
		index:  make(map[string]int, len(params)),
	}
	for i, p := range s.params {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		if _, dup := s.index[p.Name]; dup {
			return nil, fmt.Errorf("confspace: duplicate parameter %q", p.Name)
		}
		s.index[p.Name] = i
	}
	return s, nil
}

// MustSpace is NewSpace that panics on invalid declarations; for use with
// static, test-covered space definitions only.
func MustSpace(params ...Param) *Space {
	s, err := NewSpace(params...)
	if err != nil {
		panic(err)
	}
	return s
}

// Params returns the declarations in order (copy).
func (s *Space) Params() []Param { return append([]Param(nil), s.params...) }

// Dim returns the number of parameters.
func (s *Space) Dim() int { return len(s.params) }

// Param looks up a declaration by name.
func (s *Space) Param(name string) (Param, error) {
	i, ok := s.index[name]
	if !ok {
		return Param{}, fmt.Errorf("%w: %q", ErrUnknownParam, name)
	}
	return s.params[i], nil
}

// Default returns the configuration of declared defaults.
func (s *Space) Default() Config {
	c := make(Config, len(s.params))
	for _, p := range s.params {
		c[p.Name] = p.Def
	}
	return c
}

// Random draws a uniform configuration.
func (s *Space) Random(r *rand.Rand) Config {
	c := make(Config, len(s.params))
	for _, p := range s.params {
		c[p.Name] = p.Random(r)
	}
	return c
}

// RandomInto draws a uniform configuration without building a Config:
// it makes exactly the draws Random makes, in the same parameter order,
// writing each value into vals and its unit-cube encoding (what
// EncodeInto would produce) into unit. Both must have length Dim().
// Acquisition pools use it to score hundreds of candidates per step from
// flat reused buffers, materializing only the winner with FromValues.
func (s *Space) RandomInto(r *rand.Rand, vals, unit []float64) {
	for i, p := range s.params {
		v := p.Random(r)
		vals[i] = v
		unit[i] = p.Unit(v)
	}
}

// FromValues builds the configuration whose values, in declaration
// order, are vals (length Dim()). Values are taken as given, not clamped.
func (s *Space) FromValues(vals []float64) Config {
	c := make(Config, len(s.params))
	for i, p := range s.params {
		c[p.Name] = vals[i]
	}
	return c
}

// Validate checks that cfg assigns a valid value to every declared
// parameter and nothing else.
func (s *Space) Validate(cfg Config) error {
	for name, v := range cfg {
		i, ok := s.index[name]
		if !ok {
			return fmt.Errorf("%w: %q", ErrUnknownParam, name)
		}
		if s.params[i].Clamp(v) != v {
			return fmt.Errorf("%w: %s = %v", ErrInvalidValue, name, v)
		}
	}
	for _, p := range s.params {
		if _, ok := cfg[p.Name]; !ok {
			return fmt.Errorf("confspace: config missing parameter %q", p.Name)
		}
	}
	return nil
}

// Clamp returns a copy of cfg with every declared parameter snapped into
// its domain; missing parameters take their defaults, undeclared entries
// are dropped.
func (s *Space) Clamp(cfg Config) Config {
	out := make(Config, len(s.params))
	for _, p := range s.params {
		if v, ok := cfg[p.Name]; ok {
			out[p.Name] = p.Clamp(v)
		} else {
			out[p.Name] = p.Def
		}
	}
	return out
}

// Encode maps cfg to a unit-cube vector in declaration order.
func (s *Space) Encode(cfg Config) []float64 {
	return s.EncodeInto(cfg, make([]float64, len(s.params)))
}

// EncodeInto encodes cfg into dst, which must have length Dim(), and
// returns dst. Hot loops (acquisition pools encoding hundreds of
// candidates per step) use it to reuse one backing buffer across calls.
func (s *Space) EncodeInto(cfg Config, dst []float64) []float64 {
	for i, p := range s.params {
		dst[i] = p.Unit(cfg[p.Name])
	}
	return dst
}

// Decode maps a unit-cube vector back to a configuration. Short vectors
// leave trailing parameters at their defaults.
func (s *Space) Decode(x []float64) Config {
	c := s.Default()
	for i, p := range s.params {
		if i >= len(x) {
			break
		}
		c[p.Name] = p.FromUnit(x[i])
	}
	return c
}

// ChoiceValue returns the categorical label selected by cfg for name, or
// the empty string for non-categorical parameters.
func (s *Space) ChoiceValue(cfg Config, name string) string {
	p, err := s.Param(name)
	if err != nil || p.Kind != KindCategorical {
		return ""
	}
	i := int(math.Round(cfg[name]))
	if i < 0 || i >= len(p.Choices) {
		return ""
	}
	return p.Choices[i]
}

// Log10Size returns log10 of the (discretized) cardinality of the space.
// With the paper's 30-parameter Spark subset this exceeds 40 — the
// ">10^40 configurations" claim of §III-B.
func (s *Space) Log10Size() float64 {
	sum := 0.0
	for _, p := range s.params {
		sum += math.Log10(p.Levels())
	}
	return sum
}

// Neighbor perturbs cfg: each parameter mutates with probability rate; a
// mutated numeric parameter moves by a Gaussian step of the given scale in
// unit-cube coordinates, while booleans flip and categoricals resample.
// At least one parameter always mutates. Used by hill climbing and as the
// genetic-algorithm mutation operator.
func (s *Space) Neighbor(r *rand.Rand, cfg Config, rate, scale float64) Config {
	out := s.Clamp(cfg)
	mutated := false
	for _, p := range s.params {
		if r.Float64() >= rate {
			continue
		}
		out[p.Name] = s.mutateParam(r, p, out[p.Name], scale)
		mutated = true
	}
	if !mutated {
		p := s.params[r.Intn(len(s.params))]
		out[p.Name] = s.mutateParam(r, p, out[p.Name], scale)
	}
	return out
}

func (s *Space) mutateParam(r *rand.Rand, p Param, cur, scale float64) float64 {
	switch p.Kind {
	case KindBool:
		if cur >= 0.5 {
			return 0
		}
		return 1
	case KindCategorical:
		if len(p.Choices) == 1 {
			return 0
		}
		// Resample to a different choice.
		next := float64(r.Intn(len(p.Choices) - 1))
		if next >= cur {
			next++
		}
		return next
	default:
		u := p.Unit(cur) + scale*r.NormFloat64()
		v := p.FromUnit(u)
		if v == cur && p.Kind == KindInt {
			// Guarantee movement for coarse integer grids.
			if r.Float64() < 0.5 && cur > p.Min {
				v = cur - 1
			} else if cur < p.Max {
				v = cur + 1
			} else if cur > p.Min {
				v = cur - 1
			}
		}
		return v
	}
}

// Crossover mixes two parents uniformly (each gene from a random parent),
// the GA operator from DAC-style tuning.
func (s *Space) Crossover(r *rand.Rand, a, b Config) Config {
	out := make(Config, len(s.params))
	for _, p := range s.params {
		if r.Float64() < 0.5 {
			out[p.Name] = p.Clamp(a[p.Name])
		} else {
			out[p.Name] = p.Clamp(b[p.Name])
		}
	}
	return out
}

// LatinHypercube draws n configurations with stratified coverage: each
// parameter's unit interval is cut into n strata and every stratum is used
// exactly once across the sample.
func (s *Space) LatinHypercube(r *rand.Rand, n int) []Config {
	if n <= 0 {
		return nil
	}
	cols := make([][]float64, len(s.params))
	for j := range cols {
		col := make([]float64, n)
		for i := 0; i < n; i++ {
			col[i] = (float64(i) + r.Float64()) / float64(n)
		}
		r.Shuffle(n, func(a, b int) { col[a], col[b] = col[b], col[a] })
		cols[j] = col
	}
	out := make([]Config, n)
	for i := 0; i < n; i++ {
		c := make(Config, len(s.params))
		for j, p := range s.params {
			c[p.Name] = p.FromUnit(cols[j][i])
		}
		out[i] = c
	}
	return out
}

// DivideAndDiverge implements BestConfig's DDS sampling: each dimension is
// divided into k intervals, and samples are taken so that along every
// dimension all k intervals are represented ("divide"), with interval
// assignment permuted independently per dimension ("diverge"). With
// rounds > 1 the permutations are redrawn, yielding rounds×k samples.
func (s *Space) DivideAndDiverge(r *rand.Rand, k, rounds int) []Config {
	if k <= 0 || rounds <= 0 {
		return nil
	}
	var out []Config
	for round := 0; round < rounds; round++ {
		out = append(out, s.LatinHypercube(r, k)...)
	}
	return out
}

// SubspaceAround returns a space with the same parameters but numeric
// bounds shrunk to a fraction frac of their (unit) width centred on cfg —
// the "bound" step of BestConfig's recursive bound-and-search. Booleans
// and categoricals keep their full domains but default to cfg's values.
func (s *Space) SubspaceAround(cfg Config, frac float64) *Space {
	if frac <= 0 {
		frac = 0.01
	}
	if frac > 1 {
		frac = 1
	}
	params := make([]Param, len(s.params))
	for i, p := range s.params {
		np := p
		np.Def = p.Clamp(cfg[p.Name])
		switch p.Kind {
		case KindInt, KindFloat:
			u := p.Unit(cfg[p.Name])
			half := frac / 2
			loU, hiU := u-half, u+half
			if loU < 0 {
				hiU -= loU
				loU = 0
			}
			if hiU > 1 {
				loU -= hiU - 1
				hiU = 1
			}
			if loU < 0 {
				loU = 0
			}
			np.Min = p.FromUnit(loU)
			np.Max = p.FromUnit(hiU)
			if np.Max < np.Min {
				np.Min, np.Max = np.Max, np.Min
			}
			np.Def = np.Clamp(np.Def)
		}
		params[i] = np
	}
	// Parameter declarations derived from a valid space remain valid.
	sub, err := NewSpace(params...)
	if err != nil {
		return s
	}
	return sub
}

// Names returns the parameter names in declaration order.
func (s *Space) Names() []string {
	out := make([]string, len(s.params))
	for i, p := range s.params {
		out[i] = p.Name
	}
	return out
}

// FormatConfig renders cfg compactly and deterministically (sorted names),
// resolving categorical labels.
func (s *Space) FormatConfig(cfg Config) string {
	names := make([]string, 0, len(cfg))
	for name := range cfg {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, name := range names {
		if i > 0 {
			b.WriteString(" ")
		}
		if p, err := s.Param(name); err == nil && p.Kind == KindCategorical {
			fmt.Fprintf(&b, "%s=%s", name, s.ChoiceValue(cfg, name))
			continue
		}
		v := cfg[name]
		if v == math.Trunc(v) {
			fmt.Fprintf(&b, "%s=%d", name, int(v))
		} else {
			fmt.Fprintf(&b, "%s=%.3g", name, v)
		}
	}
	return b.String()
}
