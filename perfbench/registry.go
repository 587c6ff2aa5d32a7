package main

import "math"

// registry is one scrape of tuneserve's /metrics?format=json. The
// benchmark reads layers from outside through deltas between a scrape
// taken before the load and one taken after it.
type registry struct {
	Families []family `json:"families"`
}

type family struct {
	Name   string   `json:"name"`
	Labels []string `json:"labels"`
	Series []series `json:"series"`
}

type series struct {
	LabelValues []string `json:"labelValues"`
	Value       float64  `json:"value"`
	Count       float64  `json:"count"`
	Sum         float64  `json:"sum"`
	Buckets     []bucket `json:"buckets"`
}

type bucket struct {
	Le    float64 `json:"le"`
	Count float64 `json:"count"`
}

// histogram is the part of a histogram series the benchmark uses: the
// observation count and sum, and the cumulative count at each finite
// upper bound.
type histogram struct {
	count, sum float64
	les        []float64
	cum        []float64
}

// family returns the named family, or nil.
func (r *registry) family(name string) *family {
	if r == nil {
		return nil
	}
	for i := range r.Families {
		if r.Families[i].Name == name {
			return &r.Families[i]
		}
	}
	return nil
}

// matches reports whether the series carries label=value (an empty label
// matches every series).
func (f *family) matches(s series, label, value string) bool {
	if label == "" {
		return true
	}
	for i, l := range f.Labels {
		if l == label && i < len(s.LabelValues) {
			return s.LabelValues[i] == value
		}
	}
	return false
}

// value sums a counter's or gauge's series, optionally restricted to
// label=value.
func (r *registry) value(name, label, value string) float64 {
	f := r.family(name)
	if f == nil {
		return 0
	}
	total := 0.0
	for _, s := range f.Series {
		if f.matches(s, label, value) {
			total += s.Value
		}
	}
	return total
}

// hist merges a histogram family's series (optionally restricted to
// label=value) into one histogram.
func (r *registry) hist(name, label, value string) histogram {
	var h histogram
	f := r.family(name)
	if f == nil {
		return h
	}
	for _, s := range f.Series {
		if !f.matches(s, label, value) {
			continue
		}
		h.count += s.Count
		h.sum += s.Sum
		if h.les == nil {
			for _, b := range s.Buckets {
				h.les = append(h.les, b.Le)
			}
			h.cum = make([]float64, len(h.les))
		}
		for i, b := range s.Buckets {
			if i < len(h.cum) {
				h.cum[i] += b.Count
			}
		}
	}
	return h
}

// counterDelta is after−before of a counter (summed series).
func counterDelta(before, after *registry, name, label, value string) float64 {
	return after.value(name, label, value) - before.value(name, label, value)
}

// histDelta is the histogram of the observations made between the two
// scrapes.
func histDelta(before, after *registry, name, label, value string) histogram {
	a, b := after.hist(name, label, value), before.hist(name, label, value)
	d := histogram{count: a.count - b.count, sum: a.sum - b.sum, les: a.les}
	d.cum = make([]float64, len(a.cum))
	for i := range a.cum {
		d.cum[i] = a.cum[i]
		if i < len(b.cum) {
			d.cum[i] -= b.cum[i]
		}
	}
	return d
}

// quantile estimates the q-quantile of the histogram's observations.
func (h histogram) quantile(q float64) float64 {
	return bucketQuantile(h.les, h.cum, h.count, q)
}

// mean is sum/count, NaN with no observations.
func (h histogram) mean() float64 {
	if h.count <= 0 {
		return math.NaN()
	}
	return h.sum / h.count
}
