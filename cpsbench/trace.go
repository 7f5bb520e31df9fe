package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	atypical "github.com/cpskit/atypical"
	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
	"github.com/cpskit/atypical/internal/cube"
	"github.com/cpskit/atypical/internal/forest"
	"github.com/cpskit/atypical/internal/geo"
	"github.com/cpskit/atypical/internal/index"
	"github.com/cpskit/atypical/internal/query"
	"github.com/cpskit/atypical/internal/shard"
	"github.com/cpskit/atypical/internal/traffic"
)

// Tracing from outside the program: the traced pass calls each module's
// public entry points itself, in the order the facade composes them, and
// records one span per call. Spans stay in memory; the first spanDumpLimit
// are written to .bench_build/ when the run ends.

// span is one timed call. Spans of one operation share op; parent indexes
// the enclosing span (-1 for an operation's root).
type span struct {
	Name   string        `json:"name"`
	Op     int           `json:"op"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer records spans from a single goroutine.
type tracer struct {
	base  time.Time
	spans []span
	op    int
	stack []int
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// nextOp starts a new operation: spans begun from now on share its ID.
func (t *tracer) nextOp() { t.op++ }

func (t *tracer) begin(name string) int {
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: time.Since(t.base)})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	return i
}

func (t *tracer) end(i int) {
	t.spans[i].End = time.Since(t.base)
	t.stack = t.stack[:len(t.stack)-1]
}

// layerTime is the self time, call count and longest call of one span
// name.
type layerTime struct {
	self    time.Duration
	calls   int
	longest time.Duration
}

// selfTimes returns each span's self time: its duration minus the part its
// child spans cover.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// layers returns the self time, calls and longest call per span name.
func (t *tracer) layers() map[string]*layerTime {
	self := t.selfTimes()
	out := map[string]*layerTime{}
	for i, s := range t.spans {
		l := out[s.Name]
		if l == nil {
			l = &layerTime{}
			out[s.Name] = l
		}
		l.self += self[i]
		l.calls++
		l.longest = max(l.longest, s.End-s.Start)
	}
	return out
}

// spanDumpLimit caps the spans written out per run.
const spanDumpLimit = 20000

// dump writes the first spanDumpLimit spans as JSON lines under
// .bench_build/ in the working directory and returns the path.
func (t *tracer) dump(workload string, seed int64) (string, error) {
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans[:min(len(t.spans), spanDumpLimit)] {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// memSnap is the allocation and GC counters at one instant. ReadMemStats
// flushes the per-P caches, so deltas count every allocation exactly.
type memSnap struct {
	allocs, bytes uint64
	gcs           uint32
	pause         uint64
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{allocs: m.Mallocs, bytes: m.TotalAlloc, gcs: m.NumGC, pause: m.PauseTotalNs}
}

// facadeCost accumulates the untraced facade calls of a traced pass.
type facadeCost struct {
	calls         int
	wall          time.Duration
	allocs, bytes uint64
	gcs           uint32
	pause         time.Duration
}

// measure runs fn, adding its wall time, allocations and GC activity.
func (c *facadeCost) measure(fn func() error) (time.Duration, error) {
	m0 := readMem()
	t := time.Now()
	err := fn()
	d := time.Since(t)
	m1 := readMem()
	c.calls++
	c.wall += d
	c.allocs += m1.allocs - m0.allocs
	c.bytes += m1.bytes - m0.bytes
	c.gcs += m1.gcs - m0.gcs
	c.pause += time.Duration(m1.pause - m0.pause)
	return d, err
}

// composer answers queries and ingests days by calling the modules' public
// entry points directly, in the order the facade uses them (System.IngestCtx
// and query.Engine.RunCtx on the serial path), under spans.
type composer struct {
	t         *tracer
	net       *traffic.Network
	spec      cps.WindowSpec
	deltaS    float64
	gen       cluster.IDGen
	opts      cluster.IntegrateOptions
	neighbors [][]cps.SensorID
	maxGap    int
	forest    *forest.Forest
	sev       *cube.SeverityIndex
	// coord, when set, replaces the local candidates stage with a scatter
	// to the shard servers.
	coord *shard.Coordinator

	c composedCounts
}

// composedCounts are the work counts recorded at the layer boundaries.
type composedCounts struct {
	queries, ingests                int
	integrateInputs, integrateOut   int
	integrateAllocs, integrateBytes uint64
	candidatesIn, candidatesOut     int
	pruneIn, pruneKept              int
	guidedIn, guidedKept            int
	redzoneCalls, redzonesOut       int
	extractMicros                   int
	extractAllocs                   uint64
	shardCalls, retries, failures   int
	backend                         time.Duration
}

// newComposer builds an empty forest and severity index for sys's
// deployment, configured as NewSystem configures its own.
func newComposer(t *tracer, sys *atypical.System, cfg atypical.Config) *composer {
	net := sys.Network()
	locs := make([]geo.Point, net.NumSensors())
	for i, s := range net.Sensors {
		locs[i] = s.Loc
	}
	c := &composer{
		t: t, net: net, spec: sys.Spec(), deltaS: cfg.DeltaS,
		opts:      sys.Forest().Options(),
		neighbors: index.NewNeighborIndex(locs, cfg.DeltaD).NeighborLists(),
		maxGap:    cluster.MaxWindowGap(cfg.DeltaT, sys.Spec().Width),
	}
	c.forest = forest.New(c.spec, &c.gen, c.opts, cfg.DaysPerMonth)
	c.sev = cube.NewSeverityIndex(net, c.spec)
	return c
}

// resolve turns a request into the engine's query the way System.Run does,
// for the scopes this benchmark sends (whole city or a box, a day range).
func (c *composer) resolve(req atypical.QueryRequest) query.Query {
	deltaS := req.DeltaS
	if deltaS <= 0 {
		deltaS = c.deltaS
	}
	var regions []geo.RegionID
	switch {
	case req.Box != nil:
		regions = c.net.Grid.RegionsIntersecting(*req.Box)
	default:
		regions = make([]geo.RegionID, 0, c.net.Grid.NumRegions())
		for _, r := range c.net.Grid.Regions() {
			regions = append(regions, r.ID)
		}
	}
	return query.Query{Regions: regions, Time: cps.DayRange(c.spec, req.FirstDay, req.Days), DeltaS: deltaS}
}

// ingest is System.IngestCtx for one day, one call per layer.
func (c *composer) ingest(ctx context.Context, d dayRecords) error {
	t := c.t
	root := t.begin("ingest")
	defer t.end(root)
	c.c.ingests++
	var days []cluster.DayRecords
	cps.ForEachDay(cps.NewRecordSet(d.recs).SplitByDay(c.spec), func(day int, recs []cps.Record) {
		days = append(days, cluster.DayRecords{Day: day, Records: recs})
	})
	m0 := readMem()
	sp := t.begin("cluster.ExtractMicroClustersDays")
	perDay, err := cluster.ExtractMicroClustersDays(ctx, &c.gen, days, c.neighbors, c.maxGap, 0)
	t.end(sp)
	c.c.extractAllocs += readMem().allocs - m0.allocs
	if err != nil {
		return err
	}
	slices := make([][]cps.Record, len(days))
	sp = t.begin("forest.AppendDay")
	for i, dr := range days {
		c.forest.AppendDay(dr.Day, perDay[i])
		c.c.extractMicros += len(perDay[i])
		slices[i] = dr.Records
	}
	t.end(sp)
	sp = t.begin("cube.SeverityIndex.AddDays")
	err = c.sev.AddDays(ctx, slices, 0)
	t.end(sp)
	return err
}

// query is query.Engine.RunCtx without the cache, one call per layer. It
// returns the significant clusters.
func (c *composer) query(ctx context.Context, req atypical.QueryRequest) ([]*cluster.Cluster, error) {
	t := c.t
	root := t.begin("query")
	defer t.end(root)
	c.c.queries++
	q := c.resolve(req)
	numSensors := 0
	for _, r := range q.Regions {
		numSensors += len(c.net.SensorsInRegion(r))
	}
	bound := cluster.SignificanceBound(q.DeltaS, q.Time.Len(), numSensors)
	inRegion := make(map[geo.RegionID]bool, len(q.Regions))
	for _, r := range q.Regions {
		inRegion[r] = true
	}

	var candidates []*cluster.Cluster
	if c.coord != nil {
		sp := t.begin("shard.Coordinator.Scatter")
		shards, info, err := c.coord.Scatter(ctx, q.Time, q.Regions)
		t.end(sp)
		if err != nil {
			return nil, err
		}
		for _, ps := range info.PerShard {
			c.c.shardCalls++
			c.c.backend += ps.Duration
			if ps.Retried {
				c.c.retries++
			}
			if ps.Failed {
				c.c.failures++
			}
		}
		sp = t.begin("query.gather")
		candidates = gather(cps.Window(c.spec.PerDay()), shards)
		t.end(sp)
	} else {
		sp := t.begin("forest.MicrosInRange")
		raw := c.forest.MicrosInRange(q.Time)
		t.end(sp)
		sp = t.begin("query.Touches")
		for _, cl := range raw {
			if query.Touches(c.net, cl, inRegion) {
				candidates = append(candidates, cl)
			}
		}
		t.end(sp)
		c.c.candidatesIn += len(raw)
	}
	c.c.candidatesOut += len(candidates)

	var inputs []*cluster.Cluster
	switch req.Strategy {
	case atypical.IntegrateAll:
		inputs = candidates
	case atypical.Pruned:
		sp := t.begin("cluster.Significant.prune")
		dayBound := cluster.SignificanceBound(q.DeltaS, c.spec.PerDay(), numSensors)
		for _, cl := range candidates {
			if cl.Significant(dayBound) {
				inputs = append(inputs, cl)
			}
		}
		t.end(sp)
		c.c.pruneIn += len(candidates)
		c.c.pruneKept += len(inputs)
	case atypical.Guided:
		sp := t.begin("cube.SeverityIndex.GuidedRedZones")
		zones := c.sev.GuidedRedZones(q.Regions, q.Time, q.DeltaS, numSensors)
		t.end(sp)
		c.c.redzoneCalls++
		c.c.redzonesOut += len(zones)
		sp = t.begin("query.Touches.guided")
		zoneSet := make(map[geo.RegionID]bool, len(zones))
		for _, z := range zones {
			zoneSet[z] = true
		}
		for _, cl := range candidates {
			if query.Touches(c.net, cl, zoneSet) {
				inputs = append(inputs, cl)
			}
		}
		t.end(sp)
		c.c.guidedIn += len(candidates)
		c.c.guidedKept += len(inputs)
	default:
		return nil, fmt.Errorf("unknown strategy %v", req.Strategy)
	}

	m0 := readMem()
	sp := t.begin("cluster.Integrate")
	macros := cluster.Integrate(&c.gen, inputs, c.opts)
	t.end(sp)
	m1 := readMem()
	c.c.integrateAllocs += m1.allocs - m0.allocs
	c.c.integrateBytes += m1.bytes - m0.bytes
	c.c.integrateInputs += len(inputs)
	c.c.integrateOut += len(macros)

	sp = t.begin("cluster.Significant")
	var sig []*cluster.Cluster
	for _, m := range macros {
		if m.Significant(bound) {
			sig = append(sig, m)
		}
	}
	t.end(sp)
	return sig, nil
}

// gather restores the single-forest candidate order, (day, ID), over the
// shard answers, as the engine does after a scatter.
func gather(perDay cps.Window, shards []query.ShardResult) []*cluster.Cluster {
	var out []*cluster.Cluster
	for _, s := range shards {
		out = append(out, s.Candidates...)
	}
	day := func(c *cluster.Cluster) cps.Window {
		if len(c.TF) == 0 {
			return 0
		}
		return c.TF[0].Key / perDay
	}
	sort.Slice(out, func(i, j int) bool {
		if di, dj := day(out[i]), day(out[j]); di != dj {
			return di < dj
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// perLayerNames lists every per-layer metric with its unit; a traced run
// reports all of them, with zero for layers its workload does not reach.
var perLayerNames = []struct{ name, unit string }{
	{"cluster.integrate.ms", "ms"}, {"cluster.integrate.inputs", "count"}, {"cluster.integrate.macros", "count"},
	{"cluster.integrate.allocs", "count"}, {"cluster.integrate.kb", "KB"}, {"cluster.integrate.share", "share"},
	{"runtime.gc_cycles_per_kop", "count"}, {"runtime.gc_pause_ms", "ms"},
	{"query.cache.hit_share", "share"}, {"query.cache.evictions", "count"},
	{"forest.range.ms", "ms"}, {"query.candidates.ms", "ms"}, {"query.candidates.out", "count"},
	{"cube.redzones.ms", "ms"}, {"cube.redzones.out", "count"},
	{"query.prune.keep_share", "share"}, {"query.guided.keep_share", "share"},
	{"query.significance.ms", "ms"}, {"query.run.allocs", "count"}, {"query.run.kb", "KB"},
	{"cluster.extract.ms_per_day", "ms"}, {"cluster.extract.micros_per_day", "count"},
	{"cluster.extract.allocs_per_day", "count"}, {"forest.append.ms_per_day", "ms"}, {"cube.severity.ms_per_day", "ms"},
	{"shard.scatter.ms", "ms"}, {"shard.backend.ms", "ms"}, {"shard.wire_kb", "KB"},
	{"shard.retries", "count"}, {"shard.failures", "count"},
	{"stream.observe.us", "us"}, {"stream.emitted", "count"}, {"stream.open_events_max", "count"},
	{"subscribe.offer.ms", "ms"}, {"subscribe.pushes", "count"}, {"subscribe.dropped", "count"}, {"subscribe.queue_ms", "ms"},
	{"trace.coverage_share", "share"}, {"trace.overhead_share", "share"},
}

// setLayers reports every per-layer metric, starting from zero.
func (r *report) setLayers(values map[string]float64) {
	for _, m := range perLayerNames {
		r.set(m.name, m.unit, values[m.name])
	}
	for name := range values {
		if _, ok := r.metrics[name]; !ok {
			panic("cpsbench: per-layer metric " + name + " is not in perLayerNames")
		}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func msPer(d time.Duration, n int) float64 { return ratio(ms(d), float64(n)) }

// selfOf returns a layer's self time, zero when it never ran.
func selfOf(l map[string]*layerTime, name string) time.Duration {
	if v := l[name]; v != nil {
		return v.self
	}
	return 0
}

// queryLayerValues turns a composer's spans and counts into the query and
// ingest layer metrics.
func queryLayerValues(c *composer, l map[string]*layerTime) map[string]float64 {
	n := c.c
	queryLayers := []string{"forest.MicrosInRange", "query.Touches", "shard.Coordinator.Scatter", "query.gather",
		"cluster.Significant.prune", "cube.SeverityIndex.GuidedRedZones", "query.Touches.guided",
		"cluster.Integrate", "cluster.Significant"}
	var stage time.Duration
	for _, name := range queryLayers {
		stage += selfOf(l, name)
	}
	integrate := selfOf(l, "cluster.Integrate")
	v := map[string]float64{
		"cluster.integrate.ms":           msPer(integrate, n.queries),
		"cluster.integrate.inputs":       ratio(float64(n.integrateInputs), float64(n.queries)),
		"cluster.integrate.macros":       ratio(float64(n.integrateOut), float64(n.queries)),
		"cluster.integrate.allocs":       ratio(float64(n.integrateAllocs), float64(n.queries)),
		"cluster.integrate.kb":           ratio(float64(n.integrateBytes)/1024, float64(n.queries)),
		"cluster.integrate.share":        ratio(float64(integrate), float64(stage)),
		"forest.range.ms":                msPer(selfOf(l, "forest.MicrosInRange"), n.queries),
		"query.candidates.ms":            msPer(selfOf(l, "query.Touches"), n.queries),
		"query.candidates.out":           ratio(float64(n.candidatesOut), float64(n.queries)),
		"cube.redzones.ms":               msPer(selfOf(l, "cube.SeverityIndex.GuidedRedZones"), n.redzoneCalls),
		"cube.redzones.out":              ratio(float64(n.redzonesOut), float64(n.redzoneCalls)),
		"query.prune.keep_share":         ratio(float64(n.pruneKept), float64(n.pruneIn)),
		"query.guided.keep_share":        ratio(float64(n.guidedKept), float64(n.guidedIn)),
		"query.significance.ms":          msPer(selfOf(l, "cluster.Significant"), n.queries),
		"cluster.extract.ms_per_day":     msPer(selfOf(l, "cluster.ExtractMicroClustersDays"), n.ingests),
		"cluster.extract.micros_per_day": ratio(float64(n.extractMicros), float64(n.ingests)),
		"cluster.extract.allocs_per_day": ratio(float64(n.extractAllocs), float64(n.ingests)),
		"forest.append.ms_per_day":       msPer(selfOf(l, "forest.AppendDay"), n.ingests),
		"cube.severity.ms_per_day":       msPer(selfOf(l, "cube.SeverityIndex.AddDays"), n.ingests),
		"shard.scatter.ms":               msPer(selfOf(l, "shard.Coordinator.Scatter"), n.queries),
		"shard.backend.ms":               msPer(n.backend, n.shardCalls),
		"shard.retries":                  float64(n.retries),
		"shard.failures":                 float64(n.failures),
	}
	return v
}

// layerSelf adds the self times of the spans of the operations in ops (all
// operations when ops is nil), leaving out the operation roots, whose self
// time is glue between layer calls.
func (t *tracer) layerSelf(ops map[int]bool, roots ...string) time.Duration {
	var sum time.Duration
	for i, self := range t.selfTimes() {
		s := t.spans[i]
		if (ops != nil && !ops[s.Op]) || slices.Contains(roots, s.Name) {
			continue
		}
		sum += self
	}
	return sum
}
