package main

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"time"

	atypical "github.com/cpskit/atypical"
	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/shard"
	"github.com/cpskit/atypical/internal/stream"
	"github.com/cpskit/atypical/internal/subscribe"
)

// The traced passes. Each makes one single-client pass over a workload's
// inputs: every operation runs once through the facade, untraced, and once
// through the composer, traced. The composed answer must equal the facade's
// answer up to minted IDs, or the run fails.

// Operations per traced pass.
const (
	slidingTraceQueries = 150
	scatterTraceQueries = 600
	dashboardTraceDays  = 8
	// dashboardTraceRounds is how often the hot set is read per ingested
	// day: one round misses, the rest hit, near the end-to-end miss share.
	dashboardTraceRounds = 12
)

// tracedOp is one operation of a traced query pass: a day to ingest or a
// query to answer. facade is false for days the deployment already holds.
type tracedOp struct {
	ingest *dayRecords
	req    *atypical.QueryRequest
	facade bool
}

func ingestOps(days []dayRecords, facade bool) []tracedOp {
	ops := make([]tracedOp, len(days))
	for i := range days {
		ops[i] = tracedOp{ingest: &days[i], facade: facade}
	}
	return ops
}

func queryOps(reqs []atypical.QueryRequest) []tracedOp {
	ops := make([]tracedOp, len(reqs))
	for i := range reqs {
		ops[i] = tracedOp{req: &reqs[i], facade: true}
	}
	return ops
}

// traceQueryOps runs ops through sys and comp in lockstep and reports the
// query and ingest layer metrics. composedWire, when non-nil, counts the
// composer's shard traffic.
func traceQueryOps(ctx context.Context, r *report, sys *atypical.System, comp *composer, ops []tracedOp, composedWire *wireCounter) error {
	var (
		runs, ingests   facadeCost
		composed, paid  time.Duration // composed wall time, and the facade time of the same operations
		hits, faithfuls int
		byKey           = map[string]answer{}
		// paired are the operations both the facade and the composer ran;
		// coverage and overhead compare those only.
		paired = map[int]bool{}
	)
	h0, m0, e0 := sys.QueryCacheStats()
	for _, op := range ops {
		comp.t.nextOp()
		if op.ingest != nil {
			var d time.Duration
			if op.facade {
				var err error
				d, err = ingests.measure(func() error { return sys.IngestCtx(ctx, atypical.NewRecordSet(op.ingest.recs)) })
				if err != nil {
					return fmt.Errorf("ingest day %d: %w", op.ingest.day, err)
				}
			}
			t := time.Now()
			if err := comp.ingest(ctx, *op.ingest); err != nil {
				return fmt.Errorf("composed ingest day %d: %w", op.ingest.day, err)
			}
			if op.facade {
				composed += time.Since(t)
				paid += d
				paired[comp.t.op] = true
			}
			r.op(1, 0)
			continue
		}
		req := *op.req
		var res *atypical.RunResult
		hb, _, _ := sys.QueryCacheStats()
		d, err := runs.measure(func() error {
			var err error
			res, err = sys.Run(ctx, req)
			return err
		})
		if err != nil {
			return fmt.Errorf("run %s: %w", describe(req), err)
		}
		r.op(1, 0)
		got := answerOf(res.Significant)
		key := describe(req)
		if ha, _, _ := sys.QueryCacheStats(); ha > hb {
			// A hit runs no layer below the cache; it must replay the
			// answer composed when the same request missed.
			hits++
			if want, ok := byKey[key]; ok && !want.equal(got) {
				return fmt.Errorf("cache hit for %s differs from the composed answer", describe(req))
			}
			continue
		}
		t := time.Now()
		sig, err := comp.query(ctx, req)
		composed += time.Since(t)
		paid += d
		if err != nil {
			return fmt.Errorf("composed %s: %w", describe(req), err)
		}
		a := answerOf(sig)
		if !a.equal(got) {
			return fmt.Errorf("traced composition of %s disagrees with System.Run (%d vs %d clusters): not reporting layers of a different pipeline",
				describe(req), len(a), len(got))
		}
		byKey[key] = a
		faithfuls++
		paired[comp.t.op] = true
	}
	h1, m1, e1 := sys.QueryCacheStats()

	l := comp.t.layers()
	v := queryLayerValues(comp, l)
	nOps := runs.calls + ingests.calls
	v["runtime.gc_cycles_per_kop"] = ratio(float64(runs.gcs+ingests.gcs)*1000, float64(nOps))
	v["runtime.gc_pause_ms"] = ratio(ms(runs.pause+ingests.pause)*1000, float64(nOps))
	v["query.cache.hit_share"] = ratio(float64(h1-h0), float64(h1-h0+m1-m0))
	v["query.cache.evictions"] = float64(e1 - e0)
	v["query.run.allocs"] = ratio(float64(runs.allocs), float64(runs.calls))
	v["query.run.kb"] = ratio(float64(runs.bytes)/1024, float64(runs.calls))
	if composedWire != nil {
		v["shard.wire_kb"] = ratio(float64(composedWire.sent.Load()+composedWire.recv.Load())/1024, float64(comp.c.queries))
	}
	covered := comp.t.layerSelf(paired, "query", "ingest")
	v["trace.coverage_share"] = ratio(float64(covered), float64(paid))
	v["trace.overhead_share"] = ratio(float64(composed), float64(paid)) - 1
	r.setLayers(v)
	r.notef("traced pass: %d queries (%d cache hits, %d composed and checked against System.Run), %d ingested days",
		runs.calls, hits, faithfuls, comp.c.ingests)
	r.notef("untraced per-operation time %.3fms over the composed operations; layer self times cover %.1f%%; traced/untraced %.3f",
		msPer(paid, faithfuls+ingests.calls), 100*v["trace.coverage_share"], 1+v["trace.overhead_share"])
	noteLayers(r, l)
	return dumpSpans(r, comp.t)
}

// noteLayers lists each span name's calls and self time.
func noteLayers(r *report, l map[string]*layerTime) {
	for _, name := range sortedNames(l) {
		r.notef("layer %-36s calls=%-7d self=%.3fms longest=%.3fms", name, l[name].calls, ms(l[name].self), ms(l[name].longest))
	}
}

func sortedNames(l map[string]*layerTime) []string {
	names := make([]string, 0, len(l))
	for n := range l {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func dumpSpans(r *report, t *tracer) error {
	path, err := t.dump(r.workload, r.seed)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	r.notef("spans: %d recorded, first %d written to %s", len(t.spans), min(len(t.spans), spanDumpLimit), path)
	return nil
}

func traceSlidingWindows(r *report) error {
	ctx := context.Background()
	cfg := newConfig(querySensors, r.seed)
	sys, err := atypical.NewSystem(cfg, atypical.WithQueryCache(cacheEntries))
	if err != nil {
		return err
	}
	comp := newComposer(newTracer(), sys, cfg)
	var ops []tracedOp
	for m := 0; m < 3; m++ {
		ops = append(ops, ingestOps(monthDays(sys, m), true)...)
	}
	reqs := slidingRequests(r.seed, sys.Network(), slidingRate*r.seconds)
	ops = append(ops, queryOps(reqs[:min(len(reqs), slidingTraceQueries)])...)
	return traceQueryOps(ctx, r, sys, comp, ops, nil)
}

func traceDashboardIngest(r *report) error {
	ctx := context.Background()
	cfg := newConfig(querySensors, r.seed)
	sys, err := atypical.NewSystem(cfg, atypical.WithQueryCache(cacheEntries))
	if err != nil {
		return err
	}
	comp := newComposer(newTracer(), sys, cfg)
	ops := ingestOps(monthDays(sys, 0), true)
	var future []dayRecords
	for m := 1; m <= dashboardFutureMonths; m++ {
		future = append(future, monthDays(sys, m)...)
	}
	for i := 0; i < dashboardTraceDays; i++ {
		ops = append(ops, tracedOp{ingest: &future[i], facade: true})
		hot := dashboardPanels(daysPerMonth + i + 1)
		for round := 0; round < dashboardTraceRounds; round++ {
			ops = append(ops, queryOps(hot)...)
		}
	}
	return traceQueryOps(ctx, r, sys, comp, ops, nil)
}

func traceShardedScatter(r *report) error {
	ctx := context.Background()
	cfg := newConfig(querySensors, r.seed)
	var setupIngest latencies
	d, err := buildSharded(ctx, cfg, &setupIngest)
	if err != nil {
		return err
	}
	defer d.close()
	comp := newComposer(newTracer(), d.coord, cfg)
	wire := newWireCounter()
	defer wire.base.CloseIdleConnections()
	client := &http.Client{Transport: wire, Timeout: 30 * time.Second}
	var backends []shard.Backend
	for k, u := range d.urls {
		backends = append(backends, shard.NewHTTP(fmt.Sprintf("shard%d", k), u, client))
	}
	comp.coord = shard.NewCoordinator(backends, nil)
	// The deployment already holds the month; the composer ingests it too,
	// for the severity index Gui reads and the per-day ingest layers.
	ops := ingestOps(monthDays(d.coord, 0), false)
	reqs := scatterRequests(r.seed, d.coord.Network(), scatterRate*r.seconds)
	ops = append(ops, queryOps(reqs[:min(len(reqs), scatterTraceQueries)])...)
	return traceQueryOps(ctx, r, d.coord, comp, ops, wire)
}

// traceLiveFeed replays the months unpaced twice: through the facade's
// stream processor, untraced, and through stream.Processor and
// subscribe.Registry composed here, traced. Each pass drains pushes after
// every record. Both replays must equal batch Run for every subscription.
func traceLiveFeed(r *report) error {
	ctx := context.Background()
	cfg := newConfig(feedSensors, r.seed)
	f, err := buildLiveFeed(cfg)
	if err != nil {
		return err
	}

	// Untraced pass through the facade.
	facadeReplays := newReplays(len(f.subs))
	var facade facadeCost
	var observeWall time.Duration
	_, err = facade.measure(func() error {
		for _, rec := range f.recs {
			t := time.Now()
			if err := f.proc.Observe(rec); err != nil {
				return err
			}
			observeWall += time.Since(t)
			drainInto(f.subs, facadeReplays, nil)
		}
		t := time.Now()
		f.proc.Flush()
		observeWall += time.Since(t)
		drainInto(f.subs, facadeReplays, nil)
		return nil
	})
	if err != nil {
		return fmt.Errorf("facade feed: %w", err)
	}

	// Traced pass over the same records, composed from the layers.
	tr := newTracer()
	comp := newComposer(tr, f.sys, cfg)
	reg, err := subscribe.NewRegistry(subscribe.Config{Net: comp.net, Spec: comp.spec, Options: comp.opts})
	if err != nil {
		return err
	}
	var subs []*atypical.Subscription
	for _, req := range f.reqs {
		sub, err := reg.Register(comp.resolve(req), req.Strategy)
		if err != nil {
			return err
		}
		subs = append(subs, sub)
	}
	emitted := 0
	proc, err := stream.New(stream.Config{
		Neighbors: comp.neighbors, MaxGap: comp.maxGap,
		Emit: func(c *cluster.Cluster) {
			sp := tr.begin("subscribe.Registry.Offer")
			reg.Offer(c)
			tr.end(sp)
			emitted++
		},
	}, &comp.gen)
	if err != nil {
		return err
	}
	replays := newReplays(len(subs))
	var queue queueStats
	openMax := 0
	start := time.Now()
	for _, rec := range f.recs {
		tr.nextOp()
		sp := tr.begin("stream.Processor.Observe")
		err := proc.Observe(rec)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("composed feed: %w", err)
		}
		openMax = max(openMax, proc.OpenEvents())
		drainInto(subs, replays, &queue)
	}
	tr.nextOp()
	sp := tr.begin("stream.Processor.Flush")
	proc.Flush()
	tr.end(sp)
	drainInto(subs, replays, &queue)
	tracedWall := time.Since(start)

	// Both replays must equal batch Run once the emitted micro-clusters are
	// in the forest.
	f.sys.IngestClusters(f.emitted)
	var dropped uint64
	for i, req := range f.reqs {
		res, err := f.sys.Run(ctx, req)
		if err != nil {
			return fmt.Errorf("batch run %s: %w", describe(req), err)
		}
		want := answerOf(res.Significant)
		r.op(1, 0)
		if !answerOf(facadeReplays[i].Significant()).equal(want) || facadeReplays[i].Gaps > 0 {
			r.op(0, 1)
			r.notef("MISMATCH facade replay of subscription %d (%s)", i, describe(req))
		}
		if !answerOf(replays[i].Significant()).equal(want) || replays[i].Gaps > 0 {
			return fmt.Errorf("traced composition of subscription %d (%s) disagrees with batch Run: not reporting layers of a different pipeline", i, describe(req))
		}
		dropped += subs[i].Dropped()
	}

	l := tr.layers()
	observe := selfOf(l, "stream.Processor.Observe")
	offer := l["subscribe.Registry.Offer"]
	v := map[string]float64{
		"runtime.gc_cycles_per_kop": ratio(float64(facade.gcs)*1000, float64(len(f.recs))),
		"runtime.gc_pause_ms":       ratio(ms(facade.pause)*1000, float64(len(f.recs))),
		"stream.observe.us":         ratio(float64(observe)/float64(time.Microsecond), float64(len(f.recs))),
		"stream.emitted":            float64(emitted),
		"stream.open_events_max":    float64(openMax),
		"subscribe.pushes":          float64(queue.n),
		"subscribe.dropped":         float64(dropped),
		"subscribe.queue_ms":        msPer(queue.total, queue.n),
		"trace.coverage_share":      ratio(float64(tr.layerSelf(nil)), float64(observeWall)),
		"trace.overhead_share":      ratio(float64(tracedWall), float64(facade.wall)) - 1,
	}
	if offer != nil {
		v["subscribe.offer.ms"] = msPer(offer.self, offer.calls)
	}
	r.setLayers(v)
	r.notef("traced pass: %d records, %d micro-clusters, %d pushes over %d subscriptions; untraced %.3fs, traced %.3fs",
		len(f.recs), emitted, queue.n, len(subs), facade.wall.Seconds(), tracedWall.Seconds())
	r.notef("layer self times cover %.1f%% of the untraced Observe/Flush time", 100*v["trace.coverage_share"])
	noteLayers(r, l)
	return dumpSpans(r, tr)
}

func newReplays(n int) []*atypical.PushReplay {
	out := make([]*atypical.PushReplay, n)
	for i := range out {
		out[i] = atypical.NewPushReplay()
	}
	return out
}

// queueStats sums how long pushes waited between send and receipt.
type queueStats struct {
	n     int
	total time.Duration
}

// drainInto applies every buffered push to its subscription's replay.
func drainInto(subs []*atypical.Subscription, replays []*atypical.PushReplay, q *queueStats) {
	for i, s := range subs {
		for more := true; more; {
			select {
			case p := <-s.Pushes():
				if q != nil {
					q.n++
					q.total += time.Since(p.Ts)
				}
				replays[i].Apply(p)
			default:
				more = false
			}
		}
	}
}
