package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	atypical "github.com/cpskit/atypical"
)

// The four end-to-end workloads. Each builds its deployment several times
// (setup_s is the median), measures with tracing off, then checks the
// answers it sampled against a reference outside the timed region.

// Workload sizes.
const (
	// slidingRate and scatterRate size the fixed query sequences of the
	// closed-loop workloads: a run issues rate × seconds queries, about a
	// run's worth at the rates measured on a 2-core host.
	slidingRate = 70
	scatterRate = 600
	// queryClients is the closed-loop client count of the query workloads.
	queryClients = 2
	// dashboardInterval is the writer's open-loop ingest schedule: one new
	// day per interval.
	dashboardInterval = 250 * time.Millisecond
	// The dashboard reader wakes every dashboardThink and reads the panels
	// dashboardViewers times over, back to back, as that many viewers of one
	// dashboard refreshing together. Most reads are then cache hits on warm
	// data: a panel read alone after a pause cost 6–40 µs of cache misses
	// instead of 2 µs, and how much varied with the load of the shared host
	// from run to run. Without a pause the reader makes millions of hits per
	// run and the miss share falls to 0.02%; with it the miss share is near
	// 7%, so query_p99_ms falls among the misses of the 6- and 7-day panels,
	// whose latencies overlap, not on the step from hits to misses.
	dashboardThink   = 42 * time.Millisecond
	dashboardViewers = 4
	// dashboardFutureMonths are generated in setup for the writer, enough
	// for 21 s of ingest at dashboardInterval.
	dashboardFutureMonths = 3
	// feedDeltaS is the standing queries' δs: low, so pushes are dense.
	feedDeltaS = 0.0005
	// feedMonths are replayed back to back in one run, and push latency is
	// the median over months of each month's figures, so one month's bursts
	// do not set them.
	feedMonths = 3
	// feedBatchRepeats is how often the batch phase of live_feed answers
	// each subscription's request with Run.
	feedBatchRepeats = 10
)

// sampleEvery keeps every k-th answer of a closed-loop run for checking.
func sampleEvery(k int) func(int) bool { return func(i int) bool { return i%k == 0 } }

// closedLoop runs reqs on `clients` goroutines, each sending its next
// request when the previous one completes. It returns each request's
// latency, the answers of the sampled requests (nil for the others), the
// error count and the elapsed time.
func closedLoop(ctx context.Context, sys *atypical.System, reqs []atypical.QueryRequest, clients int, sampled func(int) bool) (latencies, []sample, int, time.Duration) {
	lat := make(latencies, len(reqs))
	kept := make([]sample, len(reqs))
	var next, errs atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				t := time.Now()
				res, err := sys.Run(ctx, reqs[i])
				lat[i] = ms(time.Since(t))
				if err != nil {
					errs.Add(1)
					continue
				}
				if sampled(i) {
					kept[i] = sampleOf(res.Significant)
				}
			}
		}()
	}
	wg.Wait()
	return lat, kept, int(errs.Load()), time.Since(start)
}

// checkSampled compares the sampled closed-loop answers with a reference
// system's answers to the same requests.
func checkSampled(ctx context.Context, r *report, ref *atypical.System, reqs []atypical.QueryRequest, kept []sample) error {
	o := &oracle{r: r}
	for i, got := range kept {
		if got == nil {
			continue
		}
		want, err := ref.Run(ctx, reqs[i])
		if err != nil {
			return fmt.Errorf("reference run %s: %w", describe(reqs[i]), err)
		}
		o.check(describe(reqs[i]), got.answer(), answerOf(want.Significant))
	}
	r.notef("oracle: %d sampled answers checked against an unsharded, uncached reference", o.checked)
	return nil
}

// slidingRequests is the fixed query sequence of sliding_windows: distinct
// overlapping windows of 1–28 days over 84 days.
func slidingRequests(seed int64, net *atypical.Network, n int) []atypical.QueryRequest {
	return newQueryGen(seed, net).mix(n, 1, daysPerMonth, 3*daysPerMonth)
}

func runSlidingWindows(r *report) error {
	ctx := context.Background()
	cfg := newConfig(querySensors, r.seed)
	var fresh []latencies
	sys, setup, err := repeatSetup(func() (*atypical.System, error) {
		s, lat, err := newSystemWithDays(ctx, cfg, 3, atypical.WithQueryCache(cacheEntries))
		fresh = append(fresh, lat)
		return s, err
	}, func(*atypical.System) {})
	if err != nil {
		return err
	}
	reqs := slidingRequests(r.seed, sys.Network(), slidingRate*r.seconds)

	runtime.GC()
	heap := startHeapSampler()
	lat, kept, errs, elapsed := closedLoop(ctx, sys, reqs, queryClients, sampleEvery(8))
	peak := heap.finish()
	hits, misses, evictions := sys.QueryCacheStats()
	r.op(len(reqs), errs)

	r.set("setup_s", "s", setup)
	r.setLatency("query", "query latency", lat, true)
	r.set("query_qps", "1/s", float64(len(reqs))/elapsed.Seconds())
	r.setGroupedLatency("fresh", "per-day ingest during setup", "builds", fresh)
	r.set("peak_heap_mb", "MB", peak)
	r.notef("answer cache (%d entries): %d hits, %d misses, %d evictions; hit share %.4f",
		cacheEntries, hits, misses, evictions, float64(hits)/float64(max(hits+misses, 1)))

	ref, _, err := newSystemWithDays(ctx, cfg, 3)
	if err != nil {
		return err
	}
	if err := checkSampled(ctx, r, ref, reqs, kept); err != nil {
		return err
	}
	return nil
}

// dashboard is the deployment of dashboard_ingest: a cached system holding
// one month of history and the generated days the writer will ingest.
type dashboard struct {
	sys    *atypical.System
	future []dayRecords
}

func buildDashboard(ctx context.Context, cfg atypical.Config) (*dashboard, error) {
	sys, _, err := newSystemWithDays(ctx, cfg, 1, atypical.WithQueryCache(cacheEntries))
	if err != nil {
		return nil, err
	}
	var future []dayRecords
	for m := 1; m <= dashboardFutureMonths; m++ {
		future = append(future, monthDays(sys, m)...)
	}
	return &dashboard{sys: sys, future: future}, nil
}

// dashboardDays returns how many new days a run ingests.
func dashboardDays(seconds, available int) int {
	return min(available, int(time.Duration(seconds)*time.Second/dashboardInterval))
}

// dashboardPanels returns the hot set when the system holds `held` days:
// the panels of a dashboard, read in this order — city-wide All windows
// over the trailing 1 to 7 days and a Pru window over the last day. Every
// ingest invalidates them and moves them forward a day, so a run's misses
// integrate windows spread over all the days it ingests rather than a few
// days of one seed's data. The panels are not drawn from the seed: a hit
// costs more the more macro-clusters its window holds, and the median hit
// would follow where a seed placed the windows (NOTES.md).
func dashboardPanels(held int) []atypical.QueryRequest {
	const week = 7
	hot := make([]atypical.QueryRequest, 0, week+1)
	for n := 1; n <= week; n++ {
		hot = append(hot, atypical.QueryRequest{FirstDay: held - n, Days: n, Strategy: atypical.IntegrateAll})
	}
	return append(hot, atypical.QueryRequest{FirstDay: held - 1, Days: 1, Strategy: atypical.Pruned})
}

func runDashboardIngest(r *report) error {
	ctx := context.Background()
	cfg := newConfig(querySensors, r.seed)
	d, setup, err := repeatSetup(func() (*dashboard, error) {
		return buildDashboard(ctx, cfg)
	}, func(*dashboard) {})
	if err != nil {
		return err
	}
	sys := d.sys
	days := dashboardDays(r.seconds, len(d.future))

	runtime.GC()
	h0, m0, _ := sys.QueryCacheStats()
	heap := startHeapSampler()
	var (
		fresh, lateness latencies
		ingestErrs      int
		lat             latencies
		readErrs        int
		writerDone      atomic.Bool
		held            atomic.Int64 // days ingested in full, for the panels
		wg              sync.WaitGroup
	)
	held.Store(daysPerMonth)
	start := time.Now()
	wg.Add(2)
	go func() { // writer: open loop, one day per interval
		defer wg.Done()
		defer writerDone.Store(true)
		for i := 0; i < days; i++ {
			due := time.Duration(i) * dashboardInterval
			if wait := due - time.Since(start); wait > 0 {
				time.Sleep(wait)
			}
			lateness = append(lateness, ms(time.Since(start)-due))
			err := sys.IngestCtx(ctx, atypical.NewRecordSet(d.future[i].recs))
			fresh = append(fresh, ms(time.Since(start)-due))
			if err != nil {
				ingestErrs++
			}
			held.Add(1)
		}
	}()
	go func() { // reader: closed loop over the hot set
		defer wg.Done()
		for !writerDone.Load() {
			hot := dashboardPanels(int(held.Load()))
			for k := 0; k < dashboardViewers*len(hot); k++ {
				req := hot[k%len(hot)]
				t := time.Now()
				_, err := sys.Run(ctx, req)
				lat = append(lat, ms(time.Since(t)))
				if err != nil {
					readErrs++
				}
			}
			time.Sleep(dashboardThink)
		}
	}()
	wg.Wait()
	elapsed := time.Since(start)
	peak := heap.finish()
	h1, m1, _ := sys.QueryCacheStats()
	r.op(len(lat)+days, readErrs+ingestErrs)

	r.set("setup_s", "s", setup)
	r.setLatency("query", "dashboard read latency", lat, true)
	r.set("query_qps", "1/s", float64(len(lat))/elapsed.Seconds())
	r.setLatency("fresh", "per-day ingest from its due time", fresh, false)
	r.set("peak_heap_mb", "MB", peak)
	hits, misses := h1-h0, m1-m0
	r.notef("reads: %d; answer cache: %d hits, %d misses, miss share %.4f; %d days ingested, one per %v",
		len(lat), hits, misses, float64(misses)/float64(max(hits+misses, 1)), days, dashboardInterval)
	r.notef("writer lateness: p50=%.3fms max=%.3fms", lateness.quantile(0.5), lateness.quantile(1))

	// Oracle: the hot set against a fresh uncached reference fed the same
	// days, read twice so the second read is served from the cache.
	ref, _, err := newSystemWithDays(ctx, cfg, 1)
	if err != nil {
		return err
	}
	if _, err := ingestDays(ctx, ref, d.future[:days]); err != nil {
		return err
	}
	o := &oracle{r: r}
	hot := dashboardPanels(daysPerMonth + days)
	for pass := 0; pass < 2; pass++ {
		for _, req := range hot {
			got, err := sys.Run(ctx, req)
			if err != nil {
				return fmt.Errorf("hot read %s: %w", describe(req), err)
			}
			want, err := ref.Run(ctx, req)
			if err != nil {
				return fmt.Errorf("reference run %s: %w", describe(req), err)
			}
			o.check(describe(req), answerOf(got.Significant), answerOf(want.Significant))
		}
	}
	r.notef("oracle: hot set checked twice (the second time from the cache) against a fresh uncached reference")
	return nil
}

// liveFeed is the deployment of live_feed: a system with its standing
// queries registered, a stream processor, and the records to replay.
type liveFeed struct {
	sys  *atypical.System
	reqs []atypical.QueryRequest
	subs []*atypical.Subscription
	proc *atypical.StreamProcessor
	recs []atypical.Record
	// monthEnds holds, per replayed month, the index just past its last
	// record.
	monthEnds []int
	emitted   []*atypical.Cluster
}

// feedRequests tiles the replayed days with standing queries at a low δs:
// All windows of 1, 2 and 4 days and Pru windows of 7 and 14 days, each
// length covering every day once (55 subscriptions per month). Tiling makes
// every day count the same at every window length, so how busy a seed's
// days are moves the push figures less than where windows happen to fall.
// Longer windows are Pru because an All subscription's re-integration cost
// grows steeply with its window, and 28-day windows are left out: one
// 28-day All subscription takes minutes per month (NOTES.md).
func feedRequests() []atypical.QueryRequest {
	var reqs []atypical.QueryRequest
	for _, tile := range []struct {
		days  int
		strat atypical.Strategy
	}{{1, atypical.IntegrateAll}, {2, atypical.IntegrateAll}, {4, atypical.IntegrateAll}, {7, atypical.Pruned}, {14, atypical.Pruned}} {
		for first := 0; first+tile.days <= feedMonths*daysPerMonth; first += tile.days {
			reqs = append(reqs, atypical.QueryRequest{FirstDay: first, Days: tile.days, DeltaS: feedDeltaS, Strategy: tile.strat})
		}
	}
	return reqs
}

func buildLiveFeed(cfg atypical.Config) (*liveFeed, error) {
	sys, err := atypical.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	f := &liveFeed{sys: sys, reqs: feedRequests()}
	for m := 0; m < feedMonths; m++ {
		// Months follow each other in time, so their canonical record
		// streams concatenate into one canonical stream.
		f.recs = append(f.recs, sys.GenerateMonth(m).Atypical.Records()...)
		f.monthEnds = append(f.monthEnds, len(f.recs))
	}
	for _, req := range f.reqs {
		sub, err := sys.Subscribe(req)
		if err != nil {
			return nil, fmt.Errorf("subscribe %s: %w", describe(req), err)
		}
		f.subs = append(f.subs, sub)
	}
	f.proc, err = sys.NewStreamProcessor(func(c *atypical.Cluster) { f.emitted = append(f.emitted, c) })
	return f, err
}

// received is one push as the consumer saw it.
type received struct {
	sub  int
	push atypical.Push
	at   time.Duration // receipt, since the feed started
}

// drainPushes receives pushes from every subscription until stop closes,
// then takes what is still buffered.
func drainPushes(subs []*atypical.Subscription, start time.Time, stop <-chan struct{}) []received {
	cases := make([]reflect.SelectCase, len(subs)+1)
	for i, s := range subs {
		cases[i] = reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(s.Pushes())}
	}
	cases[len(subs)] = reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(stop)}
	var out []received
	for {
		i, v, _ := reflect.Select(cases)
		if i == len(subs) {
			break
		}
		out = append(out, received{sub: i, push: v.Interface().(atypical.Push), at: time.Since(start)})
	}
	for i, s := range subs {
		for more := true; more; {
			select {
			case p := <-s.Pushes():
				out = append(out, received{sub: i, push: p, at: time.Since(start)})
			default:
				more = false
			}
		}
	}
	return out
}

func runLiveFeed(r *report) error {
	ctx := context.Background()
	cfg := newConfig(feedSensors, r.seed)
	f, setup, err := repeatSetup(func() (*liveFeed, error) {
		return buildLiveFeed(cfg)
	}, func(f *liveFeed) {
		for _, s := range f.subs {
			f.sys.Unsubscribe(s.ID())
		}
	})
	if err != nil {
		return err
	}
	n := len(f.recs)
	// Open loop: record i is due at i·step; the final Flush is due at the
	// end of the run.
	step := time.Duration(r.seconds) * time.Second / time.Duration(n)
	began := make([]time.Duration, n+1)
	var lateness latencies

	runtime.GC()
	heap := startHeapSampler()
	stop := make(chan struct{})
	pushesCh := make(chan []received, 1)
	start := time.Now()
	go func() { pushesCh <- drainPushes(f.subs, start, stop) }()
	var feedErr error
	for i, rec := range f.recs {
		due := time.Duration(i) * step
		if wait := due - time.Since(start); wait > time.Millisecond {
			time.Sleep(wait)
		}
		began[i] = time.Since(start)
		if i%64 == 0 {
			lateness = append(lateness, ms(began[i]-due))
		}
		if err := f.proc.Observe(rec); err != nil && feedErr == nil {
			feedErr = err
		}
	}
	if wait := time.Duration(n)*step - time.Since(start); wait > 0 {
		time.Sleep(wait)
	}
	began[n] = time.Since(start)
	f.proc.Flush()
	close(stop)
	pushes := <-pushesCh
	elapsed := time.Since(start)
	peak := heap.finish()
	if feedErr != nil {
		return fmt.Errorf("feed: %w", feedErr)
	}

	// Push latency runs from the arrival of the record whose Observe (or
	// the final Flush) produced the push to its receipt: evaluation, the
	// wait behind the other events closing at that arrival, and delivery.
	// The lag of arrivals behind their due times is reported apart: a month
	// replayed in seconds packs consecutive five-minute windows into
	// milliseconds, so lag carried from one window's closing events to the
	// next is an artifact of the replay speed that a live deployment, with
	// minutes between windows, does not see (NOTES.md).
	fresh := make([]latencies, feedMonths)
	var pooled, fromDue latencies
	replays := make([]*atypical.PushReplay, len(f.subs))
	for i := range replays {
		replays[i] = atypical.NewPushReplay()
	}
	for _, p := range pushes {
		ts := p.push.Ts.Sub(start)
		k := sort.Search(len(began), func(k int) bool { return began[k] > ts }) - 1
		k = max(k, 0)
		m := min(sort.SearchInts(f.monthEnds, k+1), feedMonths-1)
		fresh[m] = append(fresh[m], ms(p.at-began[k]))
		pooled = append(pooled, ms(p.at-began[k]))
		fromDue = append(fromDue, ms(p.at-time.Duration(k)*step))
		replays[p.sub].Apply(p.push)
	}
	var dropped uint64
	for _, s := range f.subs {
		dropped += s.Dropped()
	}
	r.op(len(pushes)+int(dropped), int(dropped))

	// Batch phase: the emitted micro-clusters go into the forest and every
	// subscription's request is answered with Run, the pull alternative to
	// the pushes. A gap-free replay of each subscription must equal it.
	f.sys.IngestClusters(f.emitted)
	o := &oracle{r: r}
	var lat latencies
	batchStart := time.Now()
	for rep := 0; rep < feedBatchRepeats; rep++ {
		for i, req := range f.reqs {
			t := time.Now()
			res, err := f.sys.Run(ctx, req)
			lat = append(lat, ms(time.Since(t)))
			r.op(1, 0)
			if err != nil {
				return fmt.Errorf("batch run %s: %w", describe(req), err)
			}
			if rep > 0 {
				continue
			}
			if replays[i].Gaps > 0 {
				r.op(0, 1)
				r.notef("subscription %d saw %d gaps", i, replays[i].Gaps)
			}
			o.check(fmt.Sprintf("replay of subscription %d (%s)", i, describe(req)),
				answerOf(replays[i].Significant()), answerOf(res.Significant))
		}
	}
	batchElapsed := time.Since(batchStart)

	r.set("setup_s", "s", setup)
	r.setGroupedLatency("fresh", "push latency from the producing record's arrival", "months", fresh)
	r.notef("push latency from the producing record's arrival, all months pooled: n=%d p50=%.3fms p%.1f=%.3fms max=%.3fms",
		len(pooled), pooled.quantile(0.5), 100*pooled.tailQ(), pooled.quantile(pooled.tailQ()), pooled.quantile(1))
	r.notef("push latency from the producing record's due time: p50=%.3fms p%.1f=%.3fms max=%.3fms",
		fromDue.quantile(0.5), 100*fromDue.tailQ(), fromDue.quantile(fromDue.tailQ()), fromDue.quantile(1))
	r.setLatency("query", "batch Run of the subscription requests", lat, true)
	r.set("query_qps", "1/s", float64(len(lat))/batchElapsed.Seconds())
	r.set("peak_heap_mb", "MB", peak)
	r.notef("feed: %d records at %.0f records/s over %.2fs, %d micro-clusters emitted, %d subscriptions, %d pushes, %d dropped",
		n, float64(n)/float64(r.seconds), elapsed.Seconds(), len(f.emitted), len(f.subs), len(pushes), dropped)
	r.notef("feeder lateness: p50=%.3fms max=%.3fms", lateness.quantile(0.5), lateness.quantile(1))
	r.notef("oracle: %d gap-free replays checked against batch Run after Flush", o.checked)
	return nil
}

// wireCounter is an http.RoundTripper counting request and response payload
// bytes of shard calls.
type wireCounter struct {
	base       *http.Transport
	sent, recv atomic.Int64
	calls      atomic.Int64
}

func newWireCounter() *wireCounter {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 16
	return &wireCounter{base: t}
}

func (w *wireCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	w.calls.Add(1)
	if req.ContentLength > 0 {
		w.sent.Add(req.ContentLength)
	}
	resp, err := w.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &w.recv}
	return resp, nil
}

// countingBody counts the bytes read from a response body.
type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	k, err := b.ReadCloser.Read(p)
	b.n.Add(int64(k))
	return k, err
}

// sharded is the deployment of sharded_scatter: two shard systems served on
// loopback listeners and a coordinator system that scatters to them.
type sharded struct {
	coord   *atypical.System
	shards  []*atypical.System
	urls    []string
	servers []*http.Server
	served  sync.WaitGroup
	wire    *wireCounter
}

const numShards = 2

func buildSharded(ctx context.Context, cfg atypical.Config, fresh *latencies) (*sharded, error) {
	d := &sharded{wire: newWireCounter()}
	for k := 0; k < numShards; k++ {
		sys, lat, err := newSystemWithDays(ctx, cfg, 1)
		if err != nil {
			d.close()
			return nil, err
		}
		*fresh = append(*fresh, lat...)
		h, err := sys.ShardHandler(k, numShards)
		if err != nil {
			d.close()
			return nil, err
		}
		mux := http.NewServeMux()
		mux.Handle(atypical.ShardQueryPath, h)
		mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) { fmt.Fprintln(w, "ready") })
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			d.close()
			return nil, err
		}
		srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		d.served.Add(1)
		go func() {
			defer d.served.Done()
			_ = srv.Serve(ln) // returns http.ErrServerClosed on close
		}()
		d.shards = append(d.shards, sys)
		d.servers = append(d.servers, srv)
		d.urls = append(d.urls, "http://"+ln.Addr().String())
	}
	coord, coordLat, err := newSystemWithDays(ctx, cfg, 1,
		atypical.WithShardServers(d.urls...), atypical.WithShardClient(&http.Client{Transport: d.wire, Timeout: 30 * time.Second}))
	if err != nil {
		d.close()
		return nil, err
	}
	*fresh = append(*fresh, coordLat...)
	d.coord = coord
	for _, st := range coord.ShardsReady(ctx) {
		if st.Err != nil {
			d.close()
			return nil, fmt.Errorf("%s not ready: %w", st.Shard, st.Err)
		}
	}
	return d, nil
}

// close stops the shard servers and waits for them to return.
func (d *sharded) close() {
	for _, srv := range d.servers {
		_ = srv.Close() // only listener errors, and the servers are going away
	}
	d.served.Wait()
	d.wire.base.CloseIdleConnections()
}

// scatterRequests is the fixed query sequence of sharded_scatter: 1–7-day
// windows over one month.
func scatterRequests(seed int64, net *atypical.Network, n int) []atypical.QueryRequest {
	return newQueryGen(seed, net).mix(n, 1, 7, daysPerMonth)
}

func runShardedScatter(r *report) error {
	ctx := context.Background()
	cfg := newConfig(querySensors, r.seed)
	var fresh []latencies
	d, setup, err := repeatSetup(func() (*sharded, error) {
		var lat latencies
		d, err := buildSharded(ctx, cfg, &lat)
		fresh = append(fresh, lat)
		return d, err
	}, func(d *sharded) { d.close() })
	if err != nil {
		return err
	}
	defer d.close()
	reqs := scatterRequests(r.seed, d.coord.Network(), scatterRate*r.seconds)

	runtime.GC()
	sent0, recv0, calls0 := d.wire.sent.Load(), d.wire.recv.Load(), d.wire.calls.Load()
	heap := startHeapSampler()
	lat, kept, errs, elapsed := closedLoop(ctx, d.coord, reqs, queryClients, sampleEvery(16))
	peak := heap.finish()
	r.op(len(reqs), errs)
	wireKB := float64(d.wire.sent.Load()-sent0+d.wire.recv.Load()-recv0) / 1024

	r.set("setup_s", "s", setup)
	r.setLatency("query", "sharded query latency", lat, true)
	r.set("query_qps", "1/s", float64(len(reqs))/elapsed.Seconds())
	r.setGroupedLatency("fresh", "per-day ingest of the coordinator and shards during setup", "builds", fresh)
	r.set("peak_heap_mb", "MB", peak)
	r.notef("shard wire: %d calls, %.1f KB per query (request and response payloads)",
		d.wire.calls.Load()-calls0, wireKB/float64(len(reqs)))

	ref, _, err := newSystemWithDays(ctx, cfg, 1)
	if err != nil {
		return err
	}
	if err := checkSampled(ctx, r, ref, reqs, kept); err != nil {
		return err
	}
	return nil
}
