package core

import (
	"fmt"
	"reflect"
	"testing"

	"seamlesstune/internal/cloud"
	"seamlesstune/internal/history"
	"seamlesstune/internal/spark"
	"seamlesstune/internal/stat"
	"seamlesstune/internal/transfer"
	"seamlesstune/internal/tuner"
	"seamlesstune/internal/workload"
)

// populateStore fills svc's history with tenants × every workload type,
// perKey simulated executions each at random configurations and mixed
// input sizes — the multi-tenant store shape a long-running service
// fingerprints on every job.
func populateStore(t testing.TB, svc *Service, tenants, perKey int) {
	t.Helper()
	it, err := svc.catalog.Lookup("nimbus/h1.4xlarge")
	if err != nil {
		t.Fatal(err)
	}
	cluster := cloud.ClusterSpec{Instance: it, Count: 4}
	rng := stat.NewRNG(11)
	for ti := 0; ti < tenants; ti++ {
		for _, w := range workload.All() {
			size := int64(2+6*(ti%3)) * gb
			job := w.Job(size)
			for i := 0; i < perKey; i++ {
				cfg := svc.sparkSpace.Random(rng)
				res := spark.Run(job, spark.FromConfig(svc.sparkSpace, cfg), cluster, cloud.Unit(), rng)
				svc.store.Append(history.Record{
					Tenant:     fmt.Sprintf("t%02d", ti),
					Workload:   w.Name(),
					InputBytes: size,
					Cluster:    cluster.String(),
					Config:     cfg,
					RuntimeS:   res.RuntimeS,
					CostUSD:    res.CostUSD,
					Failed:     res.Failed,
					Reason:     res.Reason,
					Metrics:    history.MetricsFromResult(res),
				})
			}
		}
	}
}

// warmStartByQuery is the reference warm start: every read is a full,
// config-copying Query.
func warmStartByQuery(s *Service, reg Registration) (transfer.SourceSelection, []tuner.Trial) {
	own := s.store.Query(history.Filter{Tenant: reg.Tenant, Workload: reg.Workload.Name()})
	target, err := transfer.FingerprintOf(transfer.WellConfigured(own))
	if err != nil {
		return transfer.SourceSelection{}, nil
	}
	candidates := make(map[history.WorkloadKey]transfer.Fingerprint)
	for _, key := range s.store.Workloads() {
		if key.Tenant == reg.Tenant && key.Workload == reg.Workload.Name() {
			continue
		}
		fp, err := transfer.FingerprintOf(transfer.WellConfigured(
			s.store.Query(history.Filter{Tenant: key.Tenant, Workload: key.Workload})))
		if err != nil {
			continue
		}
		candidates[key] = fp
	}
	if len(candidates) == 0 {
		return transfer.SourceSelection{}, nil
	}
	sel := transfer.SelectSource(target, candidates, s.transferThreshold)
	if !sel.Accepted {
		return sel, nil
	}
	recs := s.store.Query(history.Filter{Tenant: sel.Source.Tenant, Workload: sel.Source.Workload})
	return sel, transfer.WarmStartTrials(recs, s.sparkSpace, 20)
}

// TestWarmStartConfigFreeReadMatchesQuery proves the config-free
// fingerprint reads change nothing: for every workload key of a
// populated multi-tenant store, the source selection and the warm-start
// trials equal those built from full Query reads.
func TestWarmStartConfigFreeReadMatchesQuery(t *testing.T) {
	svc := testService(t, 2)
	populateStore(t, svc, 4, 10)
	accepted := 0
	for _, key := range svc.store.Workloads() {
		w, err := workload.ByName(key.Workload)
		if err != nil {
			t.Fatal(err)
		}
		reg := Registration{Tenant: key.Tenant, Workload: w, InputBytes: 8 * gb}
		wantSel, wantTrials := warmStartByQuery(svc, reg)
		gotSel, gotTrials := svc.warmStart(reg)
		if gotSel != wantSel {
			t.Errorf("%s: selection %+v, want %+v", key, gotSel, wantSel)
		}
		if !reflect.DeepEqual(gotTrials, wantTrials) {
			t.Errorf("%s: warm-start trials differ from the Query-built ones", key)
		}
		if wantSel.Accepted && len(wantTrials) > 0 {
			accepted++
		}
	}
	if accepted == 0 {
		t.Fatal("no key selected a transfer source; the comparison covers no warm-start trials")
	}
}

// BenchmarkWarmStart prices the per-job warm-start read: fingerprint the
// target and every other workload key in a 54-key, 2862-record store,
// select a source, and build its warm-start trials.
func BenchmarkWarmStart(b *testing.B) {
	svc := testService(b, 1)
	populateStore(b, svc, 9, 53)
	reg := Registration{Tenant: "t04", Workload: workload.Sort{}, InputBytes: 8 * gb}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc.warmStart(reg)
	}
}
