package main

// This file is the benchmark's only contact with the program's internal
// packages: it writes the seeded history through the storage layer,
// replays a run's data directory, and times direct calls into the
// storage and history layers (the layer probes).

import (
	"fmt"
	"math/rand"
	"time"

	"seamlesstune/internal/cloud"
	"seamlesstune/internal/confspace"
	"seamlesstune/internal/history"
	"seamlesstune/internal/obs"
	"seamlesstune/internal/spark"
	"seamlesstune/internal/storage"
	"seamlesstune/internal/workload"
)

// tunedParams is tuneserve's default -params: the first 12 knobs of the
// Spark space, the space every tuned configuration must lie in.
const tunedParams = 12

// History template shape: histTenants earlier tenants each ran every
// workload type at every size histRunsPerKey times, 2400 executions in
// all — the provider's multi-tenant production history (the paper's
// "more than 2000 configurations").
const (
	histTenants    = 8
	histRunsPerKey = 20
)

// seedHistory writes the data-directory template for one workload seed:
// a WAL holding executions of random cluster and Spark configurations
// over the five workload types, each simulated by spark.RunWith, appended
// through storage.Open + AppendRecord exactly as the service appends
// them. It returns the number of records written.
func seedHistory(dir string, seed int64) (int, error) {
	// No fsyncs while writing the template: it is an input, and the
	// measured server replays it from the page cache either way.
	be, err := storage.Open(storage.Config{DataDir: dir, NoSync: true, CompactSegments: -1})
	if err != nil {
		return 0, err
	}
	st := &history.Store{}
	if _, err := be.Recover(st); err != nil {
		be.Close()
		return 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	env := cloud.NewEnvironment(cloud.InterferenceLow, seed)
	cat := cloud.DefaultCatalog()
	cloudSpace, err := confspace.CloudSpace(cat, 2, 16)
	if err != nil {
		be.Close()
		return 0, err
	}
	sparkSpace := confspace.SparkSubspace(tunedParams)
	for t := 0; t < histTenants; t++ {
		tenant := fmt.Sprintf("hist-%02d", t)
		for _, name := range workloadNames {
			wl, err := workload.ByName(name)
			if err != nil {
				be.Close()
				return 0, err
			}
			for _, gb := range sizesGB {
				bytes := int64(gb * (1 << 30))
				job := wl.Job(bytes)
				for k := 0; k < histRunsPerKey; k++ {
					spec, err := confspace.ClusterFromConfig(cat, cloudSpace, cloudSpace.Random(rng))
					if err != nil {
						be.Close()
						return 0, err
					}
					cfg := sparkSpace.Random(rng)
					res := spark.RunWith(job, spark.FromConfig(sparkSpace, cfg), spec, env.Next(), spark.RunOpts{}, rng)
					rec := st.Append(history.Record{
						Tenant:     tenant,
						Workload:   name,
						InputBytes: bytes,
						Cluster:    spec.String(),
						Config:     cfg,
						RuntimeS:   res.RuntimeS,
						CostUSD:    res.CostUSD,
						Failed:     res.Failed,
						Reason:     res.Reason,
						Metrics:    history.MetricsFromResult(res),
					})
					if err := be.AppendRecord(rec); err != nil {
						be.Close()
						return 0, err
					}
				}
			}
		}
	}
	return st.Len(), be.Close()
}

// recoverStore replays a stopped server's data directory into a fresh
// history store: the run-end history.
func recoverStore(dir string) (*history.Store, error) {
	be, err := storage.Open(storage.Config{DataDir: dir, NoSync: true, CompactSegments: -1})
	if err != nil {
		return nil, err
	}
	st := &history.Store{}
	if _, err := be.Recover(st); err != nil {
		be.Close()
		return nil, err
	}
	return st, be.Close()
}

// probeAppendWait times n synchronous AppendRecord calls on a fresh WAL
// in dir (the same filesystem the server wrote to), re-appending the
// run-end store's latest records, with asynchronous AppendEvent calls
// interleaved at the run's measured events-per-record ratio so the group
// commits carry the same mix. It returns each append's wait in
// microseconds.
func probeAppendWait(dir string, st *history.Store, eventsPerRecord float64, n int) ([]float64, error) {
	recs := st.Query(history.Filter{MaxN: n})
	if len(recs) == 0 {
		return nil, fmt.Errorf("no records to re-append")
	}
	be, err := storage.Open(storage.Config{DataDir: dir, CompactSegments: -1})
	if err != nil {
		return nil, err
	}
	if _, err := be.Recover(&history.Store{}); err != nil {
		be.Close()
		return nil, err
	}
	waits := make([]float64, 0, n)
	owed := 0.0
	for i := 0; i < n; i++ {
		r := recs[i%len(recs)]
		for owed += eventsPerRecord; owed >= 1; owed-- {
			// A dropped event is counted by the backend and is not
			// this probe's concern.
			_ = be.AppendEvent(obs.Event{TimeNS: time.Now().UnixNano(), Type: obs.EventExecution,
				Session: "probe", Tenant: r.Tenant, Workload: r.Workload, Cluster: r.Cluster, RuntimeS: r.RuntimeS})
		}
		start := time.Now()
		if err := be.AppendRecord(r); err != nil {
			be.Close()
			return nil, err
		}
		waits = append(waits, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return waits, be.Close()
}

// probeQuery times history.Store.Query over the run-end store with the
// shape the service issues once per stored workload on every job's
// warm-start (all records of one tenant's workload), cycling over every
// workload key. It returns each query's time in microseconds.
func probeQuery(st *history.Store, n int) []float64 {
	keys := st.Workloads()
	if len(keys) == 0 {
		return nil
	}
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		k := keys[i%len(keys)]
		start := time.Now()
		st.Query(history.Filter{Tenant: k.Tenant, Workload: k.Workload})
		times = append(times, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return times
}

// validConfig reports whether cfg assigns an in-domain value to every
// knob of the tuned space and to nothing else.
func validConfig(cfg map[string]float64) error {
	return confspace.SparkSubspace(tunedParams).Validate(confspace.Config(cfg))
}
