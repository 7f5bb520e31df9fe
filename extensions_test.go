package atypical

import (
	"context"
	"errors"
	"testing"
)

func TestStreamProcessorThroughFacade(t *testing.T) {
	sys, err := NewSystem(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := sys.GenerateMonth(0)

	var streamed []*Cluster
	p, err := sys.NewStreamProcessor(func(c *Cluster) { streamed = append(streamed, c) })
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ds.Atypical.Records() {
		if err := p.Observe(r); err != nil {
			t.Fatal(err)
		}
	}
	p.Flush()
	if len(streamed) == 0 {
		t.Fatal("no clusters streamed")
	}

	// Streaming + IngestClusters carries the same severity as batch
	// Ingest. Micro counts differ slightly by design: the batch pipeline
	// splits events at midnight (per-day materialization), the stream
	// keeps overnight events whole.
	sys.IngestClusters(streamed)
	var streamSev Severity
	for _, day := range sys.Forest().Days() {
		for _, c := range sys.Forest().Day(day) {
			streamSev += c.Severity()
		}
	}
	sys2, _ := NewSystem(testConfig())
	sys2.Ingest(sys2.GenerateMonth(0).Atypical)
	var batchSev Severity
	for _, day := range sys2.Forest().Days() {
		for _, c := range sys2.Forest().Day(day) {
			batchSev += c.Severity()
		}
	}
	if d := float64(streamSev - batchSev); d > 1e-6 || d < -1e-6 {
		t.Errorf("stream severity %v != batch severity %v", streamSev, batchSev)
	}
	if streamMicros, batchMicros := sys.Forest().Stats().MicroTotal, sys2.Forest().Stats().MicroTotal; streamMicros > batchMicros {
		t.Errorf("stream produced more micros (%d) than the midnight-splitting batch (%d)", streamMicros, batchMicros)
	}
}

func TestTrainPredictorThroughFacade(t *testing.T) {
	cfg := testConfig()
	cfg.DaysPerMonth = 14
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.IngestMonths(1)

	m, err := sys.TrainPredictor(0, 10, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Patterns()) == 0 {
		t.Fatal("no patterns learned")
	}
	top := m.TopSensors(20)
	if len(top) != 20 {
		t.Fatalf("top sensors = %d", len(top))
	}
	// The forecast should score well on a held-out weekday.
	byDay := sys.GenerateMonth(0).Atypical.SplitByDay(sys.Spec())
	out := m.Evaluate(byDay[10], 30)
	if out.PrecisionAtK < 0.5 {
		t.Errorf("precision@30 = %.2f on recurring workload", out.PrecisionAtK)
	}

	if _, err := sys.TrainPredictor(0, 0, 0); err == nil {
		t.Error("zero-day training accepted")
	}
	if _, err := sys.TrainPredictor(500, 5, 0); err == nil {
		t.Error("empty range accepted")
	}
}

func TestTrustThroughFacade(t *testing.T) {
	sys, err := NewSystem(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := sys.GenerateMonth(0)
	scores, err := sys.TrustScores(ds.Atypical)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) == 0 {
		t.Fatal("no scores")
	}
	// Filtering at an impossible threshold removes everything scored;
	// at zero it removes nothing.
	kept := sys.FilterUntrusted(ds.Atypical, scores, 0)
	if kept.Len() != ds.Atypical.Len() {
		t.Errorf("zero threshold removed records: %d of %d", kept.Len(), ds.Atypical.Len())
	}
	none := sys.FilterUntrusted(ds.Atypical, scores, 1.1)
	if none.Len() != 0 {
		t.Errorf("impossible threshold kept %d records", none.Len())
	}
}

func TestForestPersistenceThroughFacade(t *testing.T) {
	sys, err := NewSystem(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := sys.GenerateMonth(0)
	sys.Ingest(ds.Atypical)
	want := sys.Forest().Stats()
	dir := t.TempDir()
	if err := sys.SaveForest(dir); err != nil {
		t.Fatal(err)
	}

	sys2, _ := NewSystem(testConfig())
	// The severity index is not persisted, so a successful load still reports
	// staleness through the sentinel.
	if err := sys2.LoadForest(dir); !errors.Is(err, ErrSeverityStale) {
		t.Fatalf("LoadForest error = %v, want ErrSeverityStale", err)
	}
	got := sys2.Forest().Stats()
	if got.Days != want.Days || got.MicroTotal != want.MicroTotal {
		t.Errorf("loaded stats %+v, want %+v", got, want)
	}
	// All-strategy queries never consult the severity index and work while
	// it is stale; Guided ones are refused until a rebuild.
	res := mustRun(t, sys2, QueryRequest{Days: 7})
	if res.CandidateMicros == 0 {
		t.Error("loaded forest served no candidates")
	}
	// Clusters merged after the load must not reuse a loaded cluster's ID.
	seen := map[uint64]bool{}
	for _, c := range res.Macros {
		if seen[uint64(c.ID)] {
			t.Errorf("cluster ID %d appears twice in the answer after LoadForest", c.ID)
		}
		seen[uint64(c.ID)] = true
	}
	if _, err := sys2.Run(context.Background(), QueryRequest{Days: 7, Strategy: Guided}); !errors.Is(err, ErrSeverityStale) {
		t.Errorf("Guided query on stale index error = %v, want ErrSeverityStale", err)
	}
	if err := sys2.RebuildSeverity(context.Background(), ds.Atypical); err != nil {
		t.Fatal(err)
	}
	if _, err := sys2.Run(context.Background(), QueryRequest{Days: 7, Strategy: Guided}); err != nil {
		t.Errorf("Guided query after RebuildSeverity: %v", err)
	}

	// LoadForestAndRebuild restores full function in one call.
	sys3, _ := NewSystem(testConfig())
	if err := sys3.LoadForestAndRebuild(context.Background(), dir, ds.Atypical); err != nil {
		t.Fatal(err)
	}
	g1 := mustRun(t, sys2, QueryRequest{Days: 7, Strategy: Guided})
	g3 := mustRun(t, sys3, QueryRequest{Days: 7, Strategy: Guided})
	if g1.RedZones != g3.RedZones || len(g1.Significant) != len(g3.Significant) {
		t.Errorf("rebuild paths disagree: %d/%d zones, %d/%d significant",
			g1.RedZones, g3.RedZones, len(g1.Significant), len(g3.Significant))
	}

	if err := sys2.LoadForest("/nonexistent"); err == nil || errors.Is(err, ErrSeverityStale) {
		t.Errorf("missing dir error = %v, want a plain load failure", err)
	}
}
