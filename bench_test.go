package seamlesstune_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"seamlesstune/internal/cloud"
	"seamlesstune/internal/confspace"
	"seamlesstune/internal/diagnose"
	"seamlesstune/internal/experiments"
	"seamlesstune/internal/gp"
	"seamlesstune/internal/sensitivity"
	"seamlesstune/internal/simcache"
	"seamlesstune/internal/spark"
	"seamlesstune/internal/stat"
	"seamlesstune/internal/surrogate"
	"seamlesstune/internal/tuner"
	"seamlesstune/internal/workload"
)

// metricName sanitizes a dynamic label for use in b.ReportMetric units
// (no whitespace allowed).
func metricName(label, suffix string) string {
	clean := strings.NewReplacer(" ", "-", "(", "", ")", "").Replace(label)
	return clean + suffix
}

// The Benchmark* functions below regenerate the paper's artifacts — one
// benchmark per table/figure/claim (see DESIGN.md's experiment index) —
// and report the headline numbers as custom metrics so `go test -bench`
// output doubles as the reproduction record. The micro-benchmarks at the
// bottom profile the substrates themselves.

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(1, 100)
		if err != nil {
			b.Fatal(err)
		}
		if !res.ShapeHolds() {
			b.Fatal("Table I shape criteria violated")
		}
		for _, row := range res.Rows {
			b.ReportMetric(row.SavingDS2*100, row.Workload+"_DS2_saving_pct")
			b.ReportMetric(row.SavingDS3*100, row.Workload+"_DS3_saving_pct")
		}
	}
}

func BenchmarkFig1Pipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1Pipeline(1)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			b.ReportMetric(row.Improvement*100, row.Workload+"_improvement_pct")
		}
	}
}

func BenchmarkFig2Architecture(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2Architecture(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Stages)), "stages")
		b.ReportMetric(float64(res.Executors), "executors")
	}
}

func BenchmarkClaimMisconfigCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.C1MisconfigCost(1, 80)
		if err != nil {
			b.Fatal(err)
		}
		maxConf, maxCluster := 0.0, 0.0
		for _, row := range res.Rows {
			if row.ConfDegradation > maxConf {
				maxConf = row.ConfDegradation
			}
			if row.ClusterDegradation > maxCluster {
				maxCluster = row.ClusterDegradation
			}
		}
		b.ReportMetric(maxConf, "max_config_degradation_x")
		b.ReportMetric(maxCluster, "max_cluster_degradation_x")
	}
}

func BenchmarkTunerComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.C2TunerComparison(1, 120)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			b.ReportMetric(row.Improvement*100, row.Tuner+"_improvement_pct")
		}
	}
}

func BenchmarkSearchSpaceGrowth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.C3SearchSpaceGrowth(1, 40)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Dims == 30 {
				b.ReportMetric(row.Log10Size, "log10_space_30params")
			}
		}
	}
}

func BenchmarkCostAmortization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.C4CostAmortization(1)
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.TuningCostUSD, "tuning_bill_500runs_usd")
		b.ReportMetric(float64(last.RunsToAmortize), "runs_to_amortize_500")
	}
}

func BenchmarkRetuneDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.C5RetuneDetection(1)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			b.ReportMetric(row.DetectionRate*100, row.Detector+"_detect_pct")
			b.ReportMetric(row.FalseAlarms*100, row.Detector+"_false_pct")
		}
	}
}

func BenchmarkTransferLearning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.C6TransferLearning(1, 25)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.WarmTo15 >= 0 {
				b.ReportMetric(float64(row.WarmTo15), row.Target+"_warm_execs_to_15pct")
			}
			if row.ColdTo15 >= 0 {
				b.ReportMetric(float64(row.ColdTo15), row.Target+"_cold_execs_to_15pct")
			}
		}
	}
}

func BenchmarkSLOEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.C7SLOEfficiency(1)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			b.ReportMetric(row.GapAt[len(row.GapAt)-1]*100, row.Workload+"_final_gap_pct")
		}
	}
}

func BenchmarkAdditiveGPInterpret(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.C8AdditiveGPInterpret(1, 80)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Top3Overlap), "top3_overlap")
	}
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks

func benchCluster(b *testing.B) cloud.ClusterSpec {
	b.Helper()
	it, err := cloud.DefaultCatalog().Lookup("nimbus/h1.4xlarge")
	if err != nil {
		b.Fatal(err)
	}
	return cloud.ClusterSpec{Instance: it, Count: 4}
}

func BenchmarkSimulatorRunPageRank(b *testing.B) {
	b.ReportAllocs()
	cluster := benchCluster(b)
	space := confspace.SparkSpace()
	conf := spark.FromConfig(space, space.Default())
	conf.ExecutorInstances = 8
	conf.ExecutorCores = 8
	conf.ExecutorMemoryMB = 16384
	conf.DriverMemoryMB = 4096
	conf.DefaultParallelism = 128
	job := workload.PageRank{}.Job(8 << 30)
	rng := stat.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := spark.Run(job, conf, cluster, cloud.Unit(), rng)
		if res.Failed {
			b.Fatal(res.Reason)
		}
	}
}

func BenchmarkSimulatorRunWordcount(b *testing.B) {
	b.ReportAllocs()
	cluster := benchCluster(b)
	space := confspace.SparkSpace()
	conf := spark.FromConfig(space, space.Default())
	conf.ExecutorInstances = 8
	conf.ExecutorCores = 8
	conf.ExecutorMemoryMB = 16384
	conf.DriverMemoryMB = 4096
	job := workload.Wordcount{}.Job(8 << 30)
	rng := stat.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := spark.Run(job, conf, cluster, cloud.Unit(), rng)
		if res.Failed {
			b.Fatal(res.Reason)
		}
	}
}

func BenchmarkGPFitPredict(b *testing.B) {
	b.ReportAllocs()
	rng := stat.NewRNG(1)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 60; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		xs = append(xs, x)
		ys = append(ys, 10*x[0]+5*x[1]*x[1]+rng.NormFloat64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := gp.FitWithHypers(gp.KindMatern52, xs, ys)
		if err != nil {
			b.Fatal(err)
		}
		g.Predict([]float64{0.5, 0.5, 0.5, 0.5})
	}
}

func BenchmarkBayesOptStep(b *testing.B) {
	b.ReportAllocs()
	space := confspace.SparkSubspace(12)
	cluster := benchCluster(b)
	job := workload.Sort{}.Job(4 << 30)
	rng := stat.NewRNG(1)
	bo := tuner.NewBayesOpt(space)
	obj := func(cfg confspace.Config) tuner.Measurement {
		res := spark.Run(job, spark.FromConfig(space, cfg), cluster, cloud.Unit(), rng)
		return tuner.Measurement{Runtime: res.RuntimeS, Cost: res.CostUSD, Failed: res.Failed}
	}
	// Pre-warm the model so the benchmark measures the modelled path.
	for i := 0; i < 12; i++ {
		cfg := bo.Next(rng)
		m := obj(cfg)
		bo.Observe(tuner.Trial{Index: i, Config: cfg, Measurement: m, Objective: m.Runtime})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := bo.Next(rng)
		m := obj(cfg)
		bo.Observe(tuner.Trial{Index: 12 + i, Config: cfg, Measurement: m, Objective: m.Runtime})
	}
}

// BenchmarkBayesOptNext is one modelled acquisition step — candidate
// pool, batched posterior, EI argmax — over a fixed history of n
// observations. The surrogate is fitted once before the timer starts and
// no iteration observes anything, so unlike BenchmarkBayesOptStep the
// cost per op does not drift with b.N.
func BenchmarkBayesOptNext(b *testing.B) {
	space := confspace.SparkSubspace(12)
	for _, n := range []int{25, 45, 100} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := stat.NewRNG(1)
			bo := tuner.NewBayesOpt(space)
			for i := 0; i < n; i++ {
				cfg := space.Random(rng)
				y := 0.0
				for _, e := range space.Encode(cfg) {
					y += (e - 0.7) * (e - 0.7)
				}
				y = 20*y + 0.5*rng.NormFloat64()
				bo.Observe(tuner.Trial{Index: i, Config: cfg, Measurement: tuner.Measurement{Runtime: y}, Objective: y})
			}
			bo.Next(rng) // fit outside the timer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bo.Next(rng)
			}
		})
	}
}

func BenchmarkGPPredictBatch(b *testing.B) {
	b.ReportAllocs()
	rng := stat.NewRNG(1)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 60; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		xs = append(xs, x)
		ys = append(ys, 10*x[0]+5*x[1]*x[1]+rng.NormFloat64())
	}
	g, err := gp.FitWithHypers(gp.KindMatern52, xs, ys)
	if err != nil {
		b.Fatal(err)
	}
	qs := make([][]float64, 500)
	for i := range qs {
		qs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.PredictBatch(qs)
	}
}

func BenchmarkConfspaceEncode(b *testing.B) {
	b.ReportAllocs()
	space := confspace.SparkSpace()
	rng := stat.NewRNG(1)
	cfg := space.Random(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		space.Encode(cfg)
	}
}

func BenchmarkWhatIfAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.C9WhatIfAccuracy(1, 15)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			b.ReportMetric(row.MAPE*100, row.Workload+"_mape_pct")
		}
	}
}

func BenchmarkParisVMSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.C10ParisVMSelection(1)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			b.ReportMetric(row.ParisRuntime/row.BestRuntime, row.Workload+"_paris_vs_best")
		}
	}
}

func BenchmarkTableIAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.A1TableIAblation(1, 60)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			b.ReportMetric(row.SavingDS3*100, metricName(row.Ablation, "_saving_pct"))
		}
	}
}

func BenchmarkDACComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.C11DACComparison(1)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			b.ReportMetric(row.CostUSD, metricName(row.Strategy, "_bill_usd"))
		}
	}
}

func BenchmarkTable1Extension(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1Extension(1, 60)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			b.ReportMetric(row.SavingDS3*100, row.Workload+"_DS3_saving_pct")
		}
	}
}

func BenchmarkTuningUnderInterference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.C12TuningUnderInterference(1, 30)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			b.ReportMetric(row.RegretPct*100, row.Level+"_regret_pct")
		}
	}
}

func BenchmarkSeamlessLifecycle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.F3SeamlessLifecycle(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.TotalStaticS-res.TotalManagedS, "production_seconds_saved")
		b.ReportMetric(res.TuningCostUSD, "provider_bill_usd")
	}
}

// BenchmarkSimCacheTuning measures a full genetic tuning session over the
// Spark simulator with and without the evaluation cache. Genetic search
// re-proposes elite configurations every generation, and a long-lived
// service replays whole sessions, so the cached variant converges to
// near-total hit rates; the two variants produce bit-identical
// trajectories (internal/simcache property tests).
func BenchmarkSimCacheTuning(b *testing.B) {
	cluster := benchCluster(b)
	space := confspace.SparkSpace()
	job := workload.PageRank{}.Job(8 << 30)
	run := func(b *testing.B, cache *simcache.Cache) {
		b.ReportAllocs()
		obj := func(cfg confspace.Config, seed int64) tuner.Measurement {
			res := cache.Run(job, spark.FromConfig(space, cfg), cluster, cloud.Unit(), spark.RunOpts{}, seed)
			return tuner.Measurement{Runtime: res.RuntimeS, Cost: res.CostUSD, Failed: res.Failed}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g := tuner.NewGenetic(space)
			if _, err := tuner.RunBatch(context.Background(), g, obj, 80, stat.NewRNG(1), tuner.BatchOptions{Workers: 1, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
		if cache != nil {
			b.ReportMetric(cache.Stats().HitRate()*100, "hit_rate_pct")
		}
	}
	b.Run("uncached", func(b *testing.B) { run(b, nil) })
	b.Run("cached", func(b *testing.B) { run(b, simcache.New(0)) })
}

// BenchmarkSimBatchEval measures the batch objective evaluator fanning a
// fixed candidate set over the worker pool.
func BenchmarkSimBatchEval(b *testing.B) {
	cluster := benchCluster(b)
	space := confspace.SparkSpace()
	job := workload.PageRank{}.Job(8 << 30)
	rng := stat.NewRNG(1)
	cfgs := make([]confspace.Config, 32)
	for i := range cfgs {
		cfgs[i] = space.Random(rng)
	}
	obj := func(cfg confspace.Config, seed int64) tuner.Measurement {
		res := spark.RunWith(job, spark.FromConfig(space, cfg), cluster, cloud.Unit(), spark.RunOpts{}, stat.NewRNG(seed))
		return tuner.Measurement{Runtime: res.RuntimeS, Cost: res.CostUSD, Failed: res.Failed}
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tuner.EvaluateBatch(obj, cfgs, 1, workers)
			}
		})
	}
}

// BenchmarkSimRunCached measures a warm evaluation-cache hit for a single
// simulated execution — the steady-state cost of re-requesting a
// configuration point the service has already paid for.
func BenchmarkSimRunCached(b *testing.B) {
	b.ReportAllocs()
	cluster := benchCluster(b)
	space := confspace.SparkSpace()
	conf := spark.FromConfig(space, space.Default())
	conf.ExecutorInstances = 8
	conf.ExecutorCores = 8
	conf.ExecutorMemoryMB = 16384
	conf.DriverMemoryMB = 4096
	conf.DefaultParallelism = 128
	job := workload.PageRank{}.Job(8 << 30)
	cache := simcache.New(0)
	if res := cache.Run(job, conf, cluster, cloud.Unit(), spark.RunOpts{}, 1); res.Failed {
		b.Fatal(res.Reason)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := cache.Run(job, conf, cluster, cloud.Unit(), spark.RunOpts{}, 1)
		if res.Failed {
			b.Fatal(res.Reason)
		}
	}
}

// surrogateData draws n noisy observations of a quadratic bowl over the
// dim-dimensional unit cube — the shape of a tuning history.
func surrogateData(n, dim int) ([][]float64, []float64) {
	rng := stat.NewRNG(7)
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x := make([]float64, dim)
		y := 0.0
		for d := range x {
			x[d] = rng.Float64()
			y += (x[d] - 0.5) * (x[d] - 0.5)
		}
		xs[i] = x
		ys[i] = 20*y + 0.5*rng.NormFloat64()
	}
	return xs, ys
}

// BenchmarkSurrogateFit profiles a from-scratch fit per backend across
// history sizes. The exact GP is skipped at n=10000: its O(n³) hyper
// grid takes minutes per fit there — the ceiling the scalable backends
// exist to remove (see docs/PERFORMANCE.md).
func BenchmarkSurrogateFit(b *testing.B) {
	for _, kind := range surrogate.Names() {
		for _, n := range []int{100, 1000, 10000} {
			if kind == surrogate.KindGP && n > 1000 {
				continue
			}
			xs, ys := surrogateData(n, 8)
			b.Run(fmt.Sprintf("%s/n=%d", kind, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					m, err := surrogate.New(surrogate.Config{Kind: kind, Seed: 1})
					if err != nil {
						b.Fatal(err)
					}
					if err := m.Fit(xs, ys); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSurrogatePredict profiles a 500-point posterior batch over a
// model fitted on 1000 observations — the acquisition hot path.
func BenchmarkSurrogatePredict(b *testing.B) {
	xs, ys := surrogateData(1000, 8)
	qs, _ := surrogateData(500, 8)
	for _, kind := range surrogate.Names() {
		b.Run(kind+"/batch=500", func(b *testing.B) {
			// Fit inside the sub-benchmark so filtered-out backends never
			// pay their fit cost (the exact GP's is seconds at n=1000).
			m, err := surrogate.New(surrogate.Config{Kind: kind, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Fit(xs, ys); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.PredictBatch(qs)
			}
		})
	}
}

// BenchmarkPrunedBayesOptStep is the acceptance number for the pruning
// tier (make bench-prune, BENCH_prune.json): one modelled BayesOpt step
// — surrogate fit plus acquisition argmax — at equal trial count over
// the full 41-parameter Spark space, full-space versus the significant
// subspace a pruning session adopts. The sensitivity analysis itself re-runs only
// every k trials, so the per-step comparison below is what dominates a
// session; the pruned step must come out >=2x faster.
func BenchmarkPrunedBayesOptStep(b *testing.B) {
	const dims = 41
	const warmN = 40
	space := confspace.SparkSubspace(dims)
	rng := stat.NewRNG(5)
	// A session history whose objective is dominated by the first three
	// encoded knobs — the shape pruning exists for.
	trials := make([]tuner.Trial, warmN)
	for i := range trials {
		cfg := space.Random(rng)
		e := space.Encode(cfg)
		y := 120 - 50*e[0] - 30*e[1]*e[1] - 10*e[2] + 0.5*rng.NormFloat64()
		trials[i] = tuner.Trial{Index: i, Config: cfg, Measurement: tuner.Measurement{Runtime: y}, Objective: y}
	}
	// Drive a pruning session over the history until it adopts a subspace.
	pb := tuner.NewPrunedBayesOpt(space)
	pb.Prune = sensitivity.Config{Seed: 7, Every: 4, MinSamples: 32}
	for _, tr := range trials {
		pb.Observe(tr)
	}
	sub := pb.Subspace()
	if sub == nil || sub.Dim() >= dims {
		b.Fatalf("session did not prune: %s", pb.Describe())
	}
	proj := make([]tuner.Trial, len(trials))
	for i, tr := range trials {
		p := tr
		p.Config = sub.Project(tr.Config)
		proj[i] = p
	}
	step := func(sp *confspace.Space, warm []tuner.Trial) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bo := tuner.NewBayesOpt(sp)
				bo.WarmStart = warm
				bo.Next(stat.NewRNG(6))
			}
			b.ReportMetric(float64(sp.Dim()), "dims")
		}
	}
	b.Run("full", step(space, trials))
	b.Run("pruned", step(sub.Space(), proj))
}

// BenchmarkBayesOptWarmStart measures session startup against a large
// transferred history: absorb 2000 warm-start trials, fit the surrogate,
// and propose the first configuration. This is the acceptance number for
// the surrogate tier — the scalable backends must beat the exact GP by
// an order of magnitude here.
func BenchmarkBayesOptWarmStart(b *testing.B) {
	const n = 2000
	space := confspace.SparkSubspace(12)
	rng := stat.NewRNG(3)
	warm := make([]tuner.Trial, n)
	for i := range warm {
		cfg := space.Random(rng)
		y := 0.0
		for _, e := range space.Encode(cfg) {
			y += (e - 0.7) * (e - 0.7)
		}
		y = 20*y + 0.5*rng.NormFloat64()
		warm[i] = tuner.Trial{Index: i, Config: cfg, Measurement: tuner.Measurement{Runtime: y}, Objective: y}
	}
	for _, kind := range surrogate.Names() {
		b.Run(fmt.Sprintf("%s/n=%d", kind, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bo := tuner.NewBayesOpt(space)
				bo.Surrogate = kind
				bo.SurrogateSeed = stat.DeriveSeed(3, "surrogate")
				bo.WarmStart = warm
				bo.Next(stat.NewRNG(4))
			}
		})
	}
}

// BenchmarkDecisionRecordOverhead prices the explainability layer: one
// modelled BayesOpt step (fresh fit over a fixed 30-trial history, one
// proposal) bare, with a decision hook installed, and with the full
// diagnostics consumer (decision record â calibration monitor â trial
// scoring) behind it. The acceptance number for the introspection tier:
// the hook path must stay within 1% of the bare step (see
// docs/OBSERVABILITY.md), since every EI-guided proposal in every
// session pays it.
func BenchmarkDecisionRecordOverhead(b *testing.B) {
	const warmN = 30
	space := confspace.SparkSubspace(12)
	rng := stat.NewRNG(1)
	warm := make([]tuner.Trial, warmN)
	for i := range warm {
		cfg := space.Random(rng)
		y := 0.0
		for _, e := range space.Encode(cfg) {
			y += (e - 0.7) * (e - 0.7)
		}
		y = 20*y + 0.5*rng.NormFloat64()
		warm[i] = tuner.Trial{Index: i, Config: cfg, Measurement: tuner.Measurement{Runtime: y}, Objective: y}
	}
	step := func(attach func(*tuner.BayesOpt) func()) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bo := tuner.NewBayesOpt(space)
				bo.WarmStart = warm
				after := attach(bo)
				bo.Next(stat.NewRNG(2))
				if after != nil {
					after()
				}
			}
		}
	}
	b.Run("off", step(func(*tuner.BayesOpt) func() { return nil }))
	var sink tuner.DecisionRecord
	b.Run("on", step(func(bo *tuner.BayesOpt) func() {
		bo.SetDecisionHook(func(r tuner.DecisionRecord) { sink = r })
		return nil
	}))
	// The full consumer, including scoring the proposal against an
	// observed outcome â what a diagnosed session pays per trial.
	mon := diagnose.New(diagnose.Config{})
	b.Run("diagnosed", step(func(bo *tuner.BayesOpt) func() {
		bo.SetDecisionHook(func(r tuner.DecisionRecord) {
			mon.OnDecision(r.Chosen.Mean, r.Chosen.Std, r.Chosen.EI)
		})
		return func() {
			mon.OnTrial(tuner.ModelTarget(42), false)
		}
	}))
	_ = sink
}
