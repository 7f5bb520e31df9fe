package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	atypical "github.com/cpskit/atypical"
	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
)

// Deployment and workload sizes. A month is 28 days, as in the load harness.
const (
	daysPerMonth = 28
	// querySensors sizes the deployments of the query workloads.
	querySensors = 400
	// feedSensors sizes the live_feed deployment: its standing queries
	// re-integrate a component per arrival, so a month at querySensors
	// would not replay within a run (see NOTES.md).
	feedSensors = 200
	// A run builds its deployment minSetups to maxSetups times, until the
	// builds take minSetupTime; setup_s is the median.
	minSetups    = 3
	maxSetups    = 25
	minSetupTime = time.Second
	// cacheEntries matches the load harness's answer-cache size.
	cacheEntries = 256
)

// newConfig returns the deployment configuration for a workload seed.
func newConfig(sensors int, seed int64) atypical.Config {
	cfg := atypical.DefaultConfig()
	cfg.Sensors = sensors
	cfg.DaysPerMonth = daysPerMonth
	cfg.Seed = seed
	return cfg
}

// dayRecords is one day of a generated dataset, ready for per-day ingest.
type dayRecords struct {
	day  int
	recs []atypical.Record
}

// monthDays generates month m for sys and splits it into days, ascending.
func monthDays(sys *atypical.System, m int) []dayRecords {
	var out []dayRecords
	cps.ForEachDay(sys.GenerateMonth(m).Atypical.SplitByDay(sys.Spec()), func(day int, recs []cps.Record) {
		out = append(out, dayRecords{day: day, recs: recs})
	})
	return out
}

// ingestDays ingests days one at a time and returns each day's ingest time.
func ingestDays(ctx context.Context, sys *atypical.System, days []dayRecords) ([]float64, error) {
	lat := make([]float64, 0, len(days))
	for _, d := range days {
		t := time.Now()
		if err := sys.IngestCtx(ctx, atypical.NewRecordSet(d.recs)); err != nil {
			return nil, fmt.Errorf("ingest day %d: %w", d.day, err)
		}
		lat = append(lat, ms(time.Since(t)))
	}
	return lat, nil
}

// newSystemWithDays builds a system and ingests the first `months` generated
// months day by day. It returns the per-day ingest times.
func newSystemWithDays(ctx context.Context, cfg atypical.Config, months int, opts ...atypical.Option) (*atypical.System, []float64, error) {
	sys, err := atypical.NewSystem(cfg, opts...)
	if err != nil {
		return nil, nil, err
	}
	var lat []float64
	for m := 0; m < months; m++ {
		l, err := ingestDays(ctx, sys, monthDays(sys, m))
		if err != nil {
			return nil, nil, err
		}
		lat = append(lat, l...)
	}
	return sys, lat, nil
}

// repeatSetup runs build at least minSetups times, and again until the
// builds add up to minSetupTime, keeping the last deployment and tearing
// down the others. It returns the kept one with the median setup time in
// seconds: repeating cheap set-ups more often keeps the median steady.
func repeatSetup[T any](build func() (T, error), teardown func(T)) (T, float64, error) {
	var kept T
	var secs []float64
	var total time.Duration
	for i := 0; i < maxSetups && (i < minSetups || total < minSetupTime); i++ {
		if i > 0 {
			teardown(kept)
			runtime.GC()
		}
		t := time.Now()
		v, err := build()
		if err != nil {
			return kept, 0, err
		}
		d := time.Since(t)
		total += d
		secs = append(secs, d.Seconds())
		kept = v
	}
	sort.Float64s(secs)
	return kept, secs[len(secs)/2], nil
}

// queryGen draws the query shapes of a workload. Shapes are stratified:
// request i has a window length, strategy and scope fixed by i, so every
// run issues the same mix; the seed draws where each window starts, where
// each box lies, and the order requests are sent in.
type queryGen struct {
	rng *rand.Rand
	net *atypical.Network
}

func newQueryGen(seed int64, net *atypical.Network) *queryGen {
	return &queryGen{rng: rand.New(rand.NewSource(seed)), net: net}
}

var strategies = []atypical.Strategy{atypical.IntegrateAll, atypical.Pruned, atypical.Guided}

// boxShare is the fraction of the deployment's extent, per dimension, that
// a box-scoped query covers.
const boxShare = 0.5

// shape returns request i of the stratified mix: windows of minDays..maxDays
// days inside [0, totalDays), each length with each strategy, city-wide and
// over a random box.
func (g *queryGen) shape(i, minDays, maxDays, totalDays int) atypical.QueryRequest {
	lengths := maxDays - minDays + 1
	days := minDays + i%lengths
	req := atypical.QueryRequest{
		FirstDay: g.rng.Intn(totalDays - days + 1),
		Days:     days,
		Strategy: strategies[(i/lengths)%len(strategies)],
	}
	if (i/(lengths*len(strategies)))%2 == 1 {
		b := g.net.Grid.Box
		dLat, dLon := b.Max.Lat-b.Min.Lat, b.Max.Lon-b.Min.Lon
		lat0 := b.Min.Lat + g.rng.Float64()*(1-boxShare)*dLat
		lon0 := b.Min.Lon + g.rng.Float64()*(1-boxShare)*dLon
		req.Box = &atypical.BBox{
			Min: atypical.Point{Lat: lat0, Lon: lon0},
			Max: atypical.Point{Lat: lat0 + boxShare*dLat, Lon: lon0 + boxShare*dLon},
		}
	}
	return req
}

// mix returns n requests of the stratified mix in seed-shuffled order.
func (g *queryGen) mix(n, minDays, maxDays, totalDays int) []atypical.QueryRequest {
	reqs := make([]atypical.QueryRequest, n)
	for i := range reqs {
		reqs[i] = g.shape(i, minDays, maxDays, totalDays)
	}
	g.rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// describe renders a request for failure messages; distinct requests of
// this benchmark render distinctly.
func describe(req atypical.QueryRequest) string {
	scope := "city"
	if req.Box != nil {
		scope = fmt.Sprintf("box %v", *req.Box)
	}
	return fmt.Sprintf("%v %s days [%d,%d) δs=%g", req.Strategy, scope, req.FirstDay, req.FirstDay+req.Days, req.DeltaS)
}

// sample is a significant set as the oracle compares it: each cluster's
// micro count, features and severity, without the merge tree behind it, so
// keeping sampled answers during a measurement does not inflate its heap.
type sample []sampledCluster

type sampledCluster struct {
	micros int
	sf     cluster.SpatialFeature
	tf     cluster.TemporalFeature
	sev    atypical.Severity
}

func sampleOf(cs []*atypical.Cluster) sample {
	out := make(sample, len(cs))
	for i, c := range cs {
		out[i] = sampledCluster{micros: c.Micros, sf: c.SF, tf: c.TF, sev: c.Severity()}
	}
	return out
}

// answer is a significant set reduced to what a correct answer must
// reproduce bit for bit: each cluster's micro count and both features, with
// severities as raw float bits. Cluster IDs minted by integration are left
// out, and clusters are sorted, so two answers compare equal up to minted
// IDs and order.
type answer []string

func answerOf(cs []*atypical.Cluster) answer { return sampleOf(cs).answer() }

func (s sample) answer() answer {
	out := make(answer, len(s))
	var b strings.Builder
	for i, c := range s {
		b.Reset()
		b.WriteString(strconv.Itoa(c.micros))
		b.WriteString("|S")
		for _, e := range c.sf {
			fmt.Fprintf(&b, " %d:%x", e.Key, math.Float64bits(float64(e.Sev)))
		}
		b.WriteString("|T")
		for _, e := range c.tf {
			fmt.Fprintf(&b, " %d:%x", e.Key, math.Float64bits(float64(e.Sev)))
		}
		fmt.Fprintf(&b, "|%x", math.Float64bits(float64(c.sev)))
		out[i] = b.String()
	}
	sort.Strings(out)
	return out
}

func (a answer) equal(b answer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// altered returns a copy of a with one cluster's last severity bit flipped,
// or with one cluster added when a is empty: a wrong answer for the
// oracle's self-checks.
func (a answer) altered() answer {
	out := append(answer(nil), a...)
	if len(out) == 0 {
		return answer{"1|S|T|0"}
	}
	s := out[0]
	last := s[len(s)-1]
	out[0] = s[:len(s)-1] + string(rune(last^1))
	return out
}

// oracle compares answers against a reference and keeps the tallies.
type oracle struct {
	r       *report
	checked int
	// canaryDone records that the blind-spot self-check ran.
	canaryDone bool
}

// check compares got with want for one sampled operation. The first call
// also feeds the oracle a deliberately altered copy, which it must reject;
// with --corrupt the altered copy replaces the real answer.
func (o *oracle) check(what string, got, want answer) {
	if !o.canaryDone {
		o.canaryDone = true
		if got.altered().equal(want) {
			o.r.blind = true
			o.r.notef("ORACLE BLIND: an altered answer passed the check (%s)", what)
		}
		if o.r.corrupt {
			got = got.altered()
		}
	}
	o.checked++
	o.r.op(1, 0)
	if !got.equal(want) {
		o.r.op(0, 1)
		o.r.notef("MISMATCH %s: %d clusters, reference %d", what, len(got), len(want))
	}
}

// latencies collects samples in milliseconds.
type latencies []float64

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile by linear interpolation between order
// statistics.
func (l latencies) quantile(q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	s := append([]float64(nil), l...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// tailQ is the highest quantile, at most 0.99, that keeps at least ten
// samples beyond it.
func (l latencies) tailQ() float64 {
	q := 1 - 10/float64(len(l))
	return math.Max(0.5, math.Min(0.99, q))
}

// setLatency reports the median of l as prefix_p50_ms and, with tail set,
// its tail as prefix_p99_ms. The note gives both, with the tail quantile
// actually used and the sample count.
func (r *report) setLatency(prefix, what string, l latencies, tail bool) {
	q := l.tailQ()
	r.set(prefix+"_p50_ms", "ms", l.quantile(0.5))
	if tail {
		r.set(prefix+"_p99_ms", "ms", l.quantile(q))
	}
	r.notef("%s: n=%d p50=%.3fms p%.1f=%.3fms max=%.3fms",
		what, len(l), l.quantile(0.5), q*100, l.quantile(q), l.quantile(1))
}

// setGroupedLatency reports latencies collected in repeated groups — one
// per setup build, or one per replayed month — as prefix_p50_ms: the median
// over groups of each group's median, so that one group slowed by the host
// or holding an unusual burst does not set the figure. The note adds the
// median over groups of each group's tail.
func (r *report) setGroupedLatency(prefix, what, group string, groups []latencies) {
	var p50, tail latencies
	for _, l := range groups {
		p50 = append(p50, l.quantile(0.5))
		tail = append(tail, l.quantile(l.tailQ()))
	}
	r.set(prefix+"_p50_ms", "ms", p50.quantile(0.5))
	r.notef("%s: %d %s of n=%d; median over %s of p50=%.3fms and p%.1f=%.3fms",
		what, len(groups), group, len(groups[0]), group, p50.quantile(0.5), 100*groups[0].tailQ(), tail.quantile(0.5))
}

// heapSampler tracks the peak live heap — the heap marked live by the last
// garbage collection — while a measurement runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), peak: liveHeap()}
	go func() {
		defer close(h.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.peak = max(h.peak, liveHeap())
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	h.peak = max(h.peak, liveHeap())
	return float64(h.peak) / (1 << 20)
}
