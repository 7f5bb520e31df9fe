package atypical

import (
	"context"
	"errors"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// Attaching an observer, a span exporter, or the flight recorder must be
// invisible in every answer: the instrumented system renders byte-identical
// reports. The recorder internally arms EXPLAIN on every run, so this also
// pins that the EXPLAIN side-channel never leaks into the answer.
func TestObserverResultNeutral(t *testing.T) {
	want := renderRuns(t, buildSystem(t), nil)
	if want == "" {
		t.Fatal("baseline system rendered nothing; neutrality check is vacuous")
	}
	got := renderRuns(t, buildSystem(t,
		WithObserver(NewObserver()),
		WithSpanExporter(func(Span) {}),
	), nil)
	if got != want {
		t.Fatalf("observer changed query results:\n%s", diffAt(got, want))
	}

	logged := buildSystem(t, WithQueryLog(QueryLogConfig{Entries: 64}))
	if got := renderRuns(t, logged, nil); got != want {
		t.Fatalf("flight recorder changed query results:\n%s", diffAt(got, want))
	}
	events := logged.QueryLog()
	if len(events) == 0 {
		t.Fatal("flight recorder armed but no wide events recorded")
	}
	for _, ev := range events {
		if ev.Kind != "query" {
			t.Errorf("facade event kind = %q, want query", ev.Kind)
		}
		if ev.Key == "" || ev.Strategy == "" || len(ev.Stages) == 0 {
			t.Errorf("wide event missing key/strategy/stages: %+v", ev)
		}
	}
}

// The advertised metric families must carry real counts after an ingest and
// one query per strategy.
func TestMetricsCoverPipeline(t *testing.T) {
	reg := NewObserver()
	sys := buildSystem(t, WithObserver(reg))
	for _, strat := range []Strategy{IntegrateAll, Pruned, Guided} {
		if rep := mustRun(t, sys, QueryRequest{Days: 7, Strategy: strat}); len(rep.Macros) == 0 {
			t.Fatalf("strategy %v returned no macros; metric assertions would be vacuous", strat)
		}
	}
	flat := sys.Metrics().Flatten()

	wantPositive := []string{
		"atyp_ingest_records_total",
		"atyp_ingest_days_total",
		"atyp_ingest_micros_total",
		`atyp_ingest_stage_seconds_count{stage="extract"}`,
		`atyp_ingest_stage_seconds_count{stage="append"}`,
		`atyp_ingest_stage_seconds_count{stage="severity"}`,
		"atyp_forest_appends_total",
		"atyp_forest_version_bumps_total",
		`atyp_query_total{strategy="all"}`,
		`atyp_query_total{strategy="pru"}`,
		`atyp_query_total{strategy="gui"}`,
		`atyp_query_seconds_count{strategy="all"}`,
		`atyp_query_micros_scanned_total{strategy="all"}`,
		`atyp_query_micros_pruned_total{strategy="pru"}`,
		"atyp_query_redzones_total",
	}
	for _, name := range wantPositive {
		if v, ok := flat[name]; !ok || v <= 0 {
			t.Errorf("metric %s = %v (present=%v), want > 0", name, v, ok)
		}
	}
	// The exact strategy never prunes; the pruned strategy must have pruned
	// at least as much as the exact one (i.e. strictly more than zero here).
	if v := flat[`atyp_query_micros_pruned_total{strategy="all"}`]; v != 0 {
		t.Errorf("IntegrateAll pruned %v micro-clusters, want 0", v)
	}
	// One week was queried per strategy over the same stack, so scanned
	// candidates agree across strategies.
	if flat[`atyp_query_micros_scanned_total{strategy="all"}`] != flat[`atyp_query_micros_scanned_total{strategy="gui"}`] {
		t.Errorf("scanned counts differ across strategies: %v", flat)
	}
	if v := flat["atyp_api_errors_total{op=\"query\"}"]; v != 0 {
		t.Errorf("query API errors = %v, want 0", v)
	}
}

// Repeated week-level lookups must hit the forest memo: the first computes
// (one miss), the second is served from cache (one hit, no new miss).
func TestMetricsForestMemo(t *testing.T) {
	reg := NewObserver()
	sys := buildSystem(t, WithObserver(reg))
	memo := func() (hits, misses float64) {
		flat := sys.Metrics().Flatten()
		for series, v := range flat {
			if strings.HasPrefix(series, "atyp_forest_memo_hits_total") {
				hits += v
			}
			if strings.HasPrefix(series, "atyp_forest_memo_misses_total") {
				misses += v
			}
		}
		return
	}
	if cs := sys.Forest().Week(0); len(cs) == 0 {
		t.Fatal("week 0 integrated to nothing; memo assertions would be vacuous")
	}
	h1, m1 := memo()
	if m1 == 0 {
		t.Fatalf("first lookup recorded no miss (hits=%v misses=%v)", h1, m1)
	}
	sys.Forest().Week(0)
	h2, m2 := memo()
	if m2 != m1 {
		t.Errorf("repeat lookup recomputed the level: misses %v -> %v", m1, m2)
	}
	if h2 <= h1 {
		t.Errorf("repeat lookup did not hit the memo: hits %v -> %v", h1, h2)
	}
}

// One registry shared by concurrent ingest, queries, snapshots and /metrics
// scrapes must be race-free (this test is the -race hammer).
func TestSharedRegistryConcurrentUse(t *testing.T) {
	reg := NewObserver()
	sys, err := NewSystem(testConfig(), WithWorkers(2), WithObserver(reg))
	if err != nil {
		t.Fatal(err)
	}
	sys.Ingest(sys.GenerateMonth(0).Atypical)

	srv := httptest.NewServer(NewDebugMux(reg))
	defer srv.Close()

	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		// A second system ingesting into the same registry.
		other, err := NewSystem(testConfig(), WithObserver(reg))
		if err != nil {
			t.Error(err)
			return
		}
		other.Ingest(other.GenerateMonth(1).Atypical)
		if _, err := other.Run(context.Background(), QueryRequest{Days: 7, Strategy: Pruned}); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if _, err := sys.Run(context.Background(), QueryRequest{Days: 7, Strategy: Strategy(i % 3)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			sys.Metrics().Flatten()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			resp, err := srv.Client().Get(srv.URL + "/metrics")
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				t.Error(err)
			}
			resp.Body.Close()
		}
	}()
	wg.Wait()

	if v, ok := sys.Metrics().Value("atyp_ingest_days_total"); !ok || v < float64(2*testConfig().DaysPerMonth) {
		t.Fatalf("shared registry lost ingest counts: %v (ok=%v)", v, ok)
	}
}

// A Guided run refused for a stale severity index (after LoadForest)
// surfaces ErrSeverityStale and lands in the API error counter once.
func TestStaleGuidedRunRecordsError(t *testing.T) {
	reg := NewObserver()
	sys := buildSystem(t, WithObserver(reg))
	dir := t.TempDir()
	if err := sys.SaveForest(dir); err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadForest(dir); !errors.Is(err, ErrSeverityStale) {
		t.Fatalf("LoadForest error = %v, want ErrSeverityStale", err)
	}
	if _, err := sys.Run(context.Background(), QueryRequest{Days: 7, Strategy: Guided}); !errors.Is(err, ErrSeverityStale) {
		t.Fatalf("Run(Guided) error = %v, want ErrSeverityStale", err)
	}
	if v, _ := sys.Metrics().Value("atyp_api_errors_total", "op", "query"); v != 1 {
		t.Fatalf("query API error count = %v, want 1", v)
	}
}

// Every facade error matches its exported sentinel under errors.Is.
func TestErrorContract(t *testing.T) {
	cfg := testConfig()
	cfg.Sensors = 0
	if _, err := NewSystem(cfg); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("NewSystem(bad config) = %v, want ErrInvalidConfig", err)
	}

	sys := buildSystem(t)
	if _, err := sys.TrainPredictor(0, 0, 0); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("TrainPredictor(days=0) = %v, want ErrInvalidConfig", err)
	}
	if _, err := sys.TrainPredictor(1000, 5, 0); !errors.Is(err, ErrNoData) {
		t.Errorf("TrainPredictor(empty range) = %v, want ErrNoData", err)
	}
	if _, err := sys.NewStreamProcessor(nil); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("NewStreamProcessor(nil emit) = %v, want ErrInvalidConfig", err)
	}
	if _, err := sys.Run(context.Background(), QueryRequest{Days: 7, Strategy: Strategy(9)}); !errors.Is(err, ErrUnknownStrategy) {
		t.Errorf("Run(bad strategy) = %v, want ErrUnknownStrategy", err)
	}
}

// The configured span exporter receives the ingest and query span trees.
func TestSpanExporterReceivesPipelineSpans(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]string{} // name -> parent
	sys, err := NewSystem(testConfig(), WithSpanExporter(func(s Span) {
		mu.Lock()
		seen[s.Name] = s.Parent
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	sys.Ingest(sys.GenerateMonth(0).Atypical)
	if _, err := sys.Run(context.Background(), QueryRequest{Days: 7, Strategy: Guided}); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	for name, parent := range map[string]string{
		"ingest":          "",
		"ingest.extract":  "ingest",
		"ingest.append":   "ingest",
		"ingest.severity": "ingest",
		"query.run":       "",
		"query.redzones":  "query.run",
		"query.integrate": "query.run",
	} {
		got, ok := seen[name]
		if !ok {
			t.Errorf("span %q never exported (saw %v)", name, seen)
			continue
		}
		if got != parent {
			t.Errorf("span %q parent = %q, want %q", name, got, parent)
		}
	}
}

// A caller-armed context exporter wins over the system-level one, so nested
// tracing tools can override per-request.
func TestContextExporterOverridesSystemExporter(t *testing.T) {
	var sysSpans, ctxSpans int
	var mu sync.Mutex
	sys, err := NewSystem(testConfig(), WithSpanExporter(func(Span) {
		mu.Lock()
		sysSpans++
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	sys.Ingest(sys.GenerateMonth(0).Atypical)
	before := sysSpans
	ctx := WithSpanContext(context.Background(), func(Span) {
		mu.Lock()
		ctxSpans++
		mu.Unlock()
	})
	if _, err := sys.Run(ctx, QueryRequest{Days: 7, Strategy: Pruned}); err != nil {
		t.Fatal(err)
	}
	if ctxSpans == 0 {
		t.Fatalf("context exporter received no spans")
	}
	if sysSpans != before {
		t.Fatalf("system exporter also ran (%d -> %d); context exporter should win", before, sysSpans)
	}
}
