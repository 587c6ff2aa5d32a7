package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// serverSpan is one span of a job's tuning trace as GET
// /v1/jobs/{id}/trace serves it (Chrome trace_event "X" events; ts and
// dur in microseconds, ts relative to the job's first span).
type serverSpan struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args,omitempty"`
}

type traceDoc struct {
	TraceEvents []serverSpan `json:"traceEvents"`
}

// jobFold is one job's pipeline wall time split into self times by the
// layer that owns them, in microseconds. The parts sum to Pipeline
// exactly: each span's self time (its duration minus the part covered by
// its child spans) lands in exactly one part.
type jobFold struct {
	Pipeline float64
	// Spark is the simulator's time: "spark-run" spans and their
	// per-stage children.
	Spark float64
	// Acq is acquisition time (candidate pool, posterior, EI argmax) as
	// the trial spans report it in their acq_s argument.
	Acq float64
	// Trial is the rest of the trial spans' self time: surrogate refit,
	// history append with its synchronous WAL commit, event publishing
	// and the tuner's bookkeeping.
	Trial float64
	// ExecPhase is the self time of the probe and baseline phases: the
	// bookkeeping of executions made outside a tuning trial.
	ExecPhase float64
	// Unattributed is the self time of the pipeline and stage spans: work
	// no child span covers (warm-start source selection, session set-up).
	Unattributed float64
	// Other is self time of spans the fold does not know.
	Other float64
	// Trials and SparkRuns count the job's trial and simulator spans.
	Trials, SparkRuns int
}

// foldJob computes a job's self-time split from its server spans. ok is
// false when the trace holds no pipeline span.
func foldJob(spans []serverSpan) (f jobFold, ok bool) {
	sorted := make([]serverSpan, 0, len(spans))
	for _, s := range spans {
		if s.Ph == "X" || s.Ph == "" {
			sorted = append(sorted, s)
		}
	}
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Ts != sorted[j].Ts {
			return sorted[i].Ts < sorted[j].Ts
		}
		return sorted[i].Dur > sorted[j].Dur
	})
	// covered[i] is the total duration of span i's direct children.
	covered := make([]float64, len(sorted))
	var stack []int
	const eps = 0.01 // µs: the endpoint serves three decimals
	for i, s := range sorted {
		for len(stack) > 0 {
			top := sorted[stack[len(stack)-1]]
			if s.Ts+s.Dur <= top.Ts+top.Dur+eps {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			covered[stack[len(stack)-1]] += s.Dur
		}
		stack = append(stack, i)
	}
	for i, s := range sorted {
		self := s.Dur - covered[i]
		switch {
		case s.Cat == "core" && s.Name == "pipeline":
			f.Pipeline = s.Dur
			ok = true
			f.Unattributed += self
		case s.Cat == "core" && (s.Name == "tune-cloud" || s.Name == "tune-disc"):
			f.Unattributed += self
		case s.Cat == "core" && (s.Name == "probe" || s.Name == "baseline"):
			f.ExecPhase += self
		case s.Cat == "tuner":
			f.Trials++
			acq := 0.0
			if v, isNum := s.Args["acq_s"].(float64); isNum {
				acq = math.Min(v*1e6, self)
			}
			f.Acq += acq
			f.Trial += self - acq
		case s.Cat == "spark" || s.Cat == "spark-stage":
			if s.Cat == "spark" {
				f.SparkRuns++
			}
			f.Spark += self
		default:
			f.Other += self
		}
	}
	return f, ok
}

// clientSpan is one HTTP call the harness made, timed from outside.
type clientSpan struct {
	Name  string
	Job   string
	Start time.Time
	End   time.Time
}

// spanLog keeps a traced run's spans in memory until the run ends.
type spanLog struct {
	mu     sync.Mutex
	client []clientSpan
	server map[string][]serverSpan // by job ID
}

func newSpanLog() *spanLog { return &spanLog{server: make(map[string][]serverSpan)} }

func (l *spanLog) addClient(s clientSpan) {
	l.mu.Lock()
	l.client = append(l.client, s)
	l.mu.Unlock()
}

func (l *spanLog) addServer(job string, spans []serverSpan) {
	l.mu.Lock()
	l.server[job] = spans
	l.mu.Unlock()
}

// write dumps every span as one Chrome trace_event file: client spans
// under pid 1 (one thread per HTTP call name), server spans under pid 2
// (one thread per job, placed at the job's start time). Times are
// microseconds since t0.
func (l *spanLog) write(path string, t0 time.Time, started map[string]time.Time) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	type ev struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var evs []ev
	tids := map[string]int{}
	for _, s := range l.client {
		if _, ok := tids[s.Name]; !ok {
			tids[s.Name] = len(tids) + 1
		}
		var args map[string]any
		if s.Job != "" {
			args = map[string]any{"job": s.Job}
		}
		evs = append(evs, ev{Name: s.Name, Cat: "client", Ph: "X",
			Ts:  float64(s.Start.Sub(t0).Microseconds()),
			Dur: float64(s.End.Sub(s.Start).Microseconds()), Pid: 1, Tid: tids[s.Name], Args: args})
	}
	jobs := make([]string, 0, len(l.server))
	for id := range l.server {
		jobs = append(jobs, id)
	}
	sort.Strings(jobs)
	for tid, id := range jobs {
		base := float64(started[id].Sub(t0).Microseconds())
		for _, s := range l.server[id] {
			args := map[string]any{"job": id}
			for k, v := range s.Args {
				args[k] = v
			}
			evs = append(evs, ev{Name: s.Name, Cat: s.Cat, Ph: "X", Ts: base + s.Ts, Dur: s.Dur,
				Pid: 2, Tid: tid + 1, Args: args})
		}
	}
	b, err := json.Marshal(map[string]any{"displayTimeUnit": "ms", "traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
