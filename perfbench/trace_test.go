package main

import (
	"math"
	"testing"
)

// A job's self times, split by layer, sum to its pipeline span.
func TestFoldJobSelfTimesSumToPipeline(t *testing.T) {
	spans := []serverSpan{
		{Name: "pipeline", Cat: "core", Ph: "X", Ts: 0, Dur: 1000},
		{Name: "tune-cloud", Cat: "core", Ph: "X", Ts: 10, Dur: 300},
		{Name: "bayesopt", Cat: "tuner", Ph: "X", Ts: 20, Dur: 100, Args: map[string]any{"acq_s": 30e-6}},
		{Name: "spark-run", Cat: "spark", Ph: "X", Ts: 60, Dur: 40},
		{Name: "stage-1", Cat: "spark-stage", Ph: "X", Ts: 65, Dur: 20},
		{Name: "bayesopt", Cat: "tuner", Ph: "X", Ts: 150, Dur: 100, Args: map[string]any{"acq_s": 500e-6}}, // acq capped at self
		{Name: "tune-disc", Cat: "core", Ph: "X", Ts: 320, Dur: 600},
		{Name: "probe", Cat: "core", Ph: "X", Ts: 330, Dur: 50},
		{Name: "spark-run", Cat: "spark", Ph: "X", Ts: 340, Dur: 30},
		{Name: "bayesopt", Cat: "tuner", Ph: "X", Ts: 400, Dur: 200},
		{Name: "baseline", Cat: "core", Ph: "X", Ts: 930, Dur: 20},
	}
	f, ok := foldJob(spans)
	if !ok {
		t.Fatal("no pipeline span found")
	}
	check := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	check("pipeline", f.Pipeline, 1000)
	check("spark", f.Spark, 40+30)
	check("acq", f.Acq, 30+100)
	check("trial", f.Trial, (100-40-30)+(100-100)+200)
	check("exec phase", f.ExecPhase, (50-30)+20)
	// pipeline self 1000-300-600-20 = 80, tune-cloud 300-200 = 100,
	// tune-disc 600-50-200 = 350.
	check("unattributed", f.Unattributed, 80+100+350)
	sum := f.Spark + f.Acq + f.Trial + f.ExecPhase + f.Unattributed + f.Other
	check("sum of parts", sum, f.Pipeline)
	if f.Trials != 3 || f.SparkRuns != 2 {
		t.Errorf("trials/spark runs = %d/%d, want 3/2", f.Trials, f.SparkRuns)
	}
	if _, ok := foldJob(spans[1:]); ok {
		t.Error("a trace without its pipeline span must not fold")
	}
}
