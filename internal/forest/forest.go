// Package forest implements the atypical forest (Section III-C): a
// collection of hierarchical clustering trees whose leaves are per-day
// micro-clusters and whose internal nodes are macro-clusters integrated
// level by level (day → week → month, plus alternative aggregation paths
// such as weekday/weekend). In practice only the lower levels are
// materialized (Section IV); higher levels are integrated on demand and
// memoized.
//
// A Forest is safe for concurrent use: any number of readers (queries,
// on-demand level integration) may run alongside writers (AddDay/AppendDay).
// Memoized levels are computed outside the lock under a singleflight guard —
// concurrent first touches of the same week integrate it once — and a
// version counter discards memos computed against a forest that changed
// underneath them.
package forest

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
	"github.com/cpskit/atypical/internal/faultfs"
	"github.com/cpskit/atypical/internal/obs"
	"github.com/cpskit/atypical/internal/storage"
)

// DaysPerWeek is the week rollup width.
const DaysPerWeek = 7

// Forest holds the materialized micro-clusters by day and memoizes
// integrated levels.
type Forest struct {
	spec cps.WindowSpec
	gen  *cluster.IDGen
	opts cluster.IntegrateOptions
	// daysPerMonth fixes the month bucket arithmetic (generated datasets
	// use fixed-length months).
	daysPerMonth int
	// workers selects the integration path for memoized levels: 0 means the
	// serial cluster.Integrate (byte-compatible with historical output),
	// anything positive the merge-tree cluster.IntegrateParallel on that
	// many goroutines.
	workers atomic.Int32

	mu      sync.RWMutex
	version uint64 // bumped by every write; stale memo computations are discarded
	days    map[int][]*cluster.Cluster
	weeks   map[int][]*cluster.Cluster
	months  map[int][]*cluster.Cluster

	inflightMu sync.Mutex
	inflight   map[memoKey]*inflightCall

	// obsm holds the pre-resolved metric handles (nil = unobserved). An
	// atomic pointer so SetObserver may arm an already-shared forest
	// without racing readers.
	obsm atomic.Pointer[forestObs]
}

// forestObs carries the forest's metric handles, resolved once by
// SetObserver. All handles are nil-safe, so a partially wired struct is
// harmless; a nil *forestObs (the unobserved default) costs one atomic
// load per hook.
type forestObs struct {
	weekHits, weekMisses   *obs.Counter
	monthHits, monthMisses *obs.Counter
	appends                *obs.Counter
	versionBumps           *obs.Counter
	bytesRead              *obs.Counter
	bytesWritten           *obs.Counter
	corrupt                *obs.Counter
}

// memoHit records a level served from the memo cache (or joined onto an
// in-flight computation of it).
func (m *forestObs) memoHit(level byte) {
	if m == nil {
		return
	}
	if level == 'w' {
		m.weekHits.Inc()
	} else {
		m.monthHits.Inc()
	}
}

// memoMiss records a level that had to be integrated.
func (m *forestObs) memoMiss(level byte) {
	if m == nil {
		return
	}
	if level == 'w' {
		m.weekMisses.Inc()
	} else {
		m.monthMisses.Inc()
	}
}

// SetObserver registers the forest's metric families on r and arms the
// hooks: memo hit/miss per level, copy-on-write appends, version bumps,
// and the bytes Save/Load move through storage. A nil registry disarms.
func (f *Forest) SetObserver(r *obs.Registry) {
	if r == nil {
		f.obsm.Store(nil)
		return
	}
	f.obsm.Store(&forestObs{
		weekHits:     r.Counter("atyp_forest_memo_hits_total", "memoized level lookups served from cache", "level", "week"),
		weekMisses:   r.Counter("atyp_forest_memo_misses_total", "memoized level lookups that integrated", "level", "week"),
		monthHits:    r.Counter("atyp_forest_memo_hits_total", "memoized level lookups served from cache", "level", "month"),
		monthMisses:  r.Counter("atyp_forest_memo_misses_total", "memoized level lookups that integrated", "level", "month"),
		appends:      r.Counter("atyp_forest_appends_total", "copy-on-write day appends"),
		versionBumps: r.Counter("atyp_forest_version_bumps_total", "forest writes invalidating memoized levels"),
		bytesRead:    r.Counter("atyp_storage_bytes_read_total", "bytes read loading persisted clusters"),
		bytesWritten: r.Counter("atyp_storage_bytes_written_total", "bytes written persisting clusters"),
		corrupt: r.Counter("atyp_storage_corrupt_total",
			"persisted files that failed integrity checks and were quarantined",
			"src", "forest"),
	})
}

// memoKey names one memoized level slot ('w' = week, 'm' = month).
type memoKey struct {
	level byte
	idx   int
}

// inflightCall is one in-progress level integration other callers wait on.
type inflightCall struct {
	done chan struct{}
	val  []*cluster.Cluster
}

// New returns an empty forest integrating with opts.
func New(spec cps.WindowSpec, gen *cluster.IDGen, opts cluster.IntegrateOptions, daysPerMonth int) *Forest {
	if daysPerMonth <= 0 {
		panic("forest: daysPerMonth must be positive")
	}
	return &Forest{
		spec:         spec,
		gen:          gen,
		opts:         opts,
		daysPerMonth: daysPerMonth,
		days:         make(map[int][]*cluster.Cluster),
		weeks:        make(map[int][]*cluster.Cluster),
		months:       make(map[int][]*cluster.Cluster),
		inflight:     make(map[memoKey]*inflightCall),
	}
}

// Options returns the integration options the forest was built with.
func (f *Forest) Options() cluster.IntegrateOptions { return f.opts }

// Spec returns the forest's window spec.
func (f *Forest) Spec() cps.WindowSpec { return f.spec }

// SetWorkers selects how memoized levels integrate: n == 0 keeps the serial
// path, n > 0 uses the parallel merge tree on n goroutines, n < 0 on one per
// CPU. The parallel result is independent of n (see cluster.IntegrateParallel),
// so this knob trades only wall-clock time.
func (f *Forest) SetWorkers(n int) { f.workers.Store(int32(n)) }

// integrate runs the configured integration path; legacy bridge for
// callers without a context.
func (f *Forest) integrate(leaves []*cluster.Cluster) []*cluster.Cluster {
	return f.integrateCtx(context.Background(), leaves)
}

// integrateCtx runs the configured integration path with ctx threaded into
// the parallel reduction (observability spans, cooperative cancellation).
// The answer must stay correct for the memo layer even when ctx is already
// cancelled, so a cancelled parallel run falls back to the serial path
// rather than returning a partial result.
func (f *Forest) integrateCtx(ctx context.Context, leaves []*cluster.Cluster) []*cluster.Cluster {
	if w := int(f.workers.Load()); w != 0 {
		if out, err := cluster.IntegrateParallelCtx(ctx, f.gen, leaves, f.opts, w); err == nil {
			return out
		}
	}
	return cluster.Integrate(f.gen, leaves, f.opts)
}

// AddDay stores the micro-clusters of one day (leaves of every tree),
// replacing any previous slice, and invalidates the memoized levels that
// cover it.
func (f *Forest) AddDay(day int, micros []*cluster.Cluster) {
	f.mu.Lock()
	f.days[day] = micros
	f.invalidateLocked(day)
	f.mu.Unlock()
}

// AppendDay extends one day's micro-clusters copy-on-write: readers holding
// the previous slice keep a consistent snapshot, because the backing array
// they alias is never written through again.
func (f *Forest) AppendDay(day int, micros []*cluster.Cluster) {
	if len(micros) == 0 {
		return
	}
	f.mu.Lock()
	existing := f.days[day]
	merged := make([]*cluster.Cluster, 0, len(existing)+len(micros))
	merged = append(merged, existing...)
	merged = append(merged, micros...)
	f.days[day] = merged
	f.invalidateLocked(day)
	f.mu.Unlock()
	if m := f.obsm.Load(); m != nil {
		m.appends.Inc()
	}
}

// invalidateLocked drops memos covering day and bumps the version so
// concurrent memo computations from the old state are not stored. Callers
// hold f.mu.
func (f *Forest) invalidateLocked(day int) {
	f.version++
	delete(f.weeks, day/DaysPerWeek)
	delete(f.months, day/f.daysPerMonth)
	if m := f.obsm.Load(); m != nil {
		m.versionBumps.Inc()
	}
}

// Day returns the micro-clusters of one day (nil when absent). The returned
// slice is a snapshot: writers never mutate it in place.
func (f *Forest) Day(day int) []*cluster.Cluster {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.days[day]
}

// Days returns the stored day indices, ascending.
func (f *Forest) Days() []int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.daysLocked()
}

// daysLocked is Days for callers already holding f.mu (either mode).
func (f *Forest) daysLocked() []int {
	out := make([]int, 0, len(f.days))
	for d := range f.days {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// MicrosInRange returns every micro-cluster whose day falls inside the
// day-aligned range tr, in day order. The count of returned clusters is the
// I/O measure of Fig. 17(b).
func (f *Forest) MicrosInRange(tr cps.TimeRange) []*cluster.Cluster {
	perDay := cps.Window(f.spec.PerDay())
	f.mu.RLock()
	defer f.mu.RUnlock()
	var out []*cluster.Cluster
	for _, d := range f.daysLocked() {
		dayStart := cps.Window(d) * perDay
		if dayStart >= tr.From && dayStart < tr.To {
			out = append(out, f.days[d]...)
		}
	}
	return out
}

// Week integrates (and memoizes) the macro-clusters of week w — the
// clustering-tree level above days in Fig. 10.
func (f *Forest) Week(w int) []*cluster.Cluster {
	return f.WeekCtx(context.Background(), w)
}

// WeekCtx is Week with introspection: when ctx carries an obs.MemoSink
// (installed by the query EXPLAIN pipeline), the lookup reports whether it
// hit the memo cache and which forest version it saw. Cancellation only
// reroutes the parallel integration path to the serial one, so the answer
// is always identical to Week's.
func (f *Forest) WeekCtx(ctx context.Context, w int) []*cluster.Cluster {
	return f.memoized(ctx, memoKey{'w', w}, func() []*cluster.Cluster {
		f.mu.RLock()
		var leaves []*cluster.Cluster
		for d := w * DaysPerWeek; d < (w+1)*DaysPerWeek; d++ {
			leaves = append(leaves, f.days[d]...)
		}
		f.mu.RUnlock()
		return f.integrateCtx(ctx, leaves)
	})
}

// Month integrates (and memoizes) the macro-clusters of month m from its
// week-level clusters — the multi-level aggregation path day → week →
// month.
func (f *Forest) Month(m int) []*cluster.Cluster {
	return f.MonthCtx(context.Background(), m)
}

// MonthCtx is Month with introspection; see WeekCtx. Week lookups performed
// on behalf of the month integration report through the same sink.
func (f *Forest) MonthCtx(ctx context.Context, m int) []*cluster.Cluster {
	return f.memoized(ctx, memoKey{'m', m}, func() []*cluster.Cluster {
		firstDay := m * f.daysPerMonth
		lastDay := (m+1)*f.daysPerMonth - 1
		var leaves []*cluster.Cluster
		for w := firstDay / DaysPerWeek; w <= lastDay/DaysPerWeek; w++ {
			leaves = append(leaves, f.WeekCtx(ctx, w)...)
		}
		return f.integrateCtx(ctx, leaves)
	})
}

// Version returns the forest's write-version counter — bumped by every
// AddDay/AppendDay, and the join key EXPLAIN records use to tie an answer
// to a specific forest state.
func (f *Forest) Version() uint64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.version
}

// memoMapLocked returns the memo map for a level. Callers hold f.mu.
func (f *Forest) memoMapLocked(level byte) map[int][]*cluster.Cluster {
	if level == 'w' {
		return f.weeks
	}
	return f.months
}

// levelName expands the memo level byte for events and EXPLAIN records.
func levelName(level byte) string {
	if level == 'w' {
		return "week"
	}
	return "month"
}

// memoized returns the cached value for key or computes it once: concurrent
// first callers coalesce onto a single compute (singleflight), and a result
// computed against a forest that changed meanwhile is returned to its
// callers but not cached. Each lookup reports hit/miss both to the metric
// handles (process-wide aggregates) and to any obs.MemoSink on ctx (the
// per-request EXPLAIN path).
func (f *Forest) memoized(ctx context.Context, key memoKey, compute func() []*cluster.Cluster) []*cluster.Cluster {
	f.mu.RLock()
	cached, ok := f.memoMapLocked(key.level)[key.idx]
	ver := f.version
	f.mu.RUnlock()
	emit := func(hit bool) {
		obs.EmitMemo(ctx, obs.MemoEvent{Level: levelName(key.level), Index: key.idx, Hit: hit, Version: ver})
	}
	if ok {
		f.obsm.Load().memoHit(key.level)
		emit(true)
		return cached
	}

	f.inflightMu.Lock()
	if c, ok := f.inflight[key]; ok {
		f.inflightMu.Unlock()
		// Coalescing onto another caller's computation counts as a hit:
		// no integration work is spent on this lookup.
		f.obsm.Load().memoHit(key.level)
		emit(true)
		<-c.done
		return c.val
	}
	c := &inflightCall{done: make(chan struct{})}
	f.inflight[key] = c
	f.inflightMu.Unlock()

	// Re-check the cache: a previous flight may have landed between our miss
	// and our registration.
	f.mu.RLock()
	cached, ok = f.memoMapLocked(key.level)[key.idx]
	f.mu.RUnlock()
	if ok {
		f.obsm.Load().memoHit(key.level)
		emit(true)
		c.val = cached
	} else {
		f.obsm.Load().memoMiss(key.level)
		emit(false)
		c.val = compute()
		f.mu.Lock()
		if f.version == ver {
			f.memoMapLocked(key.level)[key.idx] = c.val
		}
		f.mu.Unlock()
	}

	f.inflightMu.Lock()
	delete(f.inflight, key)
	f.inflightMu.Unlock()
	close(c.done)
	return c.val
}

// PathFunc maps a day index to an aggregation bucket; ok=false excludes the
// day. Alternative paths (weekday/weekend, by month parity, ...) make up
// the different trees of the forest.
type PathFunc func(day int) (bucket int, ok bool)

// WeekdayWeekendPath buckets weekdays of each week as 2·week and weekend
// days as 2·week+1 — the "integrate the micro-clusters by weekdays and
// weekends" path of Section III-C.
func WeekdayWeekendPath(day int) (int, bool) {
	week := day / DaysPerWeek
	if day%DaysPerWeek < 5 {
		return 2 * week, true
	}
	return 2*week + 1, true
}

// IntegratePath integrates the stored days along an arbitrary aggregation
// path, returning the macro-clusters per bucket. Results are not memoized.
// The day snapshot is taken once; integration runs unlocked.
func (f *Forest) IntegratePath(path PathFunc) map[int][]*cluster.Cluster {
	buckets := make(map[int][]*cluster.Cluster)
	f.mu.RLock()
	for _, d := range f.daysLocked() {
		if b, ok := path(d); ok {
			buckets[b] = append(buckets[b], f.days[d]...)
		}
	}
	f.mu.RUnlock()
	out := make(map[int][]*cluster.Cluster, len(buckets))
	for b, leaves := range buckets {
		out[b] = f.integrate(leaves)
	}
	return out
}

// Save persists the forest to dir: one cluster file per materialized day,
// plus one per *memoized* week and month — the partially materialized data
// structure of Section IV (micro-clusters and the low-level macro-clusters
// that have been computed; everything else is integrated on demand). The
// snapshot is taken under the lock; file I/O runs outside it.
//
// Every file is written through the faultfs atomic protocol (temp file →
// fsync → rename → directory fsync), so a crash mid-save leaves each file
// at either its previous or its new contents — never torn — plus at most
// stray *.tmp debris that loads ignore and remove.
func (f *Forest) Save(dir string) error {
	return f.SaveFS(dir, faultfs.OS{})
}

// SaveFS is Save on an explicit filesystem seam; fault-injection tests
// pass a faultfs.Injector to enumerate crash-points.
func (f *Forest) SaveFS(dir string, fsys faultfs.FS) error {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("forest: %w", err)
	}
	type fileSnapshot struct {
		name string
		cs   []*cluster.Cluster
	}
	var files []fileSnapshot
	f.mu.RLock()
	for _, d := range f.daysLocked() {
		files = append(files, fileSnapshot{levelFileName("day", d), f.days[d]})
	}
	for _, w := range sortedKeys(f.weeks) {
		files = append(files, fileSnapshot{levelFileName("week", w), f.weeks[w]})
	}
	for _, m := range sortedKeys(f.months) {
		files = append(files, fileSnapshot{levelFileName("month", m), f.months[m]})
	}
	f.mu.RUnlock()

	m := f.obsm.Load()
	for _, snap := range files {
		path := filepath.Join(dir, snap.name)
		af, err := faultfs.CreateAtomic(fsys, path, 0o644)
		if err != nil {
			return fmt.Errorf("forest: %w", err)
		}
		n, err := storage.WriteClusters(af, snap.cs)
		if err != nil {
			af.Abort()
			return fmt.Errorf("forest: writing %s: %w", path, err)
		}
		if err := af.Commit(); err != nil {
			return fmt.Errorf("forest: writing %s: %w", path, err)
		}
		if m != nil {
			m.bytesWritten.Add(n)
		}
	}
	return nil
}

// LoadOptions configures LoadWith.
type LoadOptions struct {
	// FS is the filesystem seam; nil means the real filesystem.
	FS faultfs.FS
	// Recover quarantines corrupt cluster files (renamed to *.corrupt,
	// counted in atyp_storage_corrupt_total) and loads the healthy
	// remainder, instead of failing the whole load. The quarantines are
	// reported, never silent: the caller decides whether a forest missing
	// those segments is acceptable.
	Recover bool
	// Registry, when non-nil, observes the load (bytes read, corrupt
	// files) and stays attached to the forest.
	Registry *obs.Registry
}

// LoadReport describes what a load had to do.
type LoadReport struct {
	// Quarantined lists cluster files (base names) that failed integrity
	// checks and were renamed aside with the .corrupt suffix.
	Quarantined []string
}

// Load reads a forest previously saved to dir, restoring the materialized
// days and any persisted week/month levels into the memo caches. Any
// corrupt file fails the load with an error wrapping storage.ErrCorrupt.
func Load(dir string, spec cps.WindowSpec, gen *cluster.IDGen, opts cluster.IntegrateOptions, daysPerMonth int) (*Forest, error) {
	return LoadObserved(dir, spec, gen, opts, daysPerMonth, nil)
}

// LoadObserved is Load with an observer attached before any file is read, so
// the bytes-read counter covers the restore itself as well as later Saves.
// A nil registry behaves exactly like Load.
func LoadObserved(dir string, spec cps.WindowSpec, gen *cluster.IDGen, opts cluster.IntegrateOptions, daysPerMonth int, r *obs.Registry) (*Forest, error) {
	f, _, err := LoadWith(dir, spec, gen, opts, daysPerMonth, LoadOptions{Registry: r})
	return f, err
}

// LoadWith reads a saved forest with explicit filesystem and recovery
// options. Stray *.tmp files (crash debris) are removed; *.corrupt files
// (previous quarantines) are ignored.
// gen ends past the largest loaded cluster ID, so clusters merged from the
// loaded forest never share an ID with a loaded one.
func LoadWith(dir string, spec cps.WindowSpec, gen *cluster.IDGen, opts cluster.IntegrateOptions, daysPerMonth int, lo LoadOptions) (*Forest, LoadReport, error) {
	fsys := lo.FS
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	f := New(spec, gen, opts, daysPerMonth)
	f.SetObserver(lo.Registry)
	m := f.obsm.Load()
	var report LoadReport
	var maxID cluster.ID
	if err := faultfs.RemoveStrayTemps(fsys, dir); err != nil {
		return nil, report, fmt.Errorf("forest: %w", err)
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, report, fmt.Errorf("forest: %w", err)
	}
	read := func(name string) ([]*cluster.Cluster, error) {
		file, err := faultfs.Open(fsys, filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("forest: %w", err)
		}
		defer file.Close()
		var src io.Reader = file
		cr := &countingReader{r: file}
		if m != nil {
			src = cr
		}
		cs, err := storage.ReadClusters(src)
		if m != nil {
			m.bytesRead.Add(cr.n)
		}
		if err != nil {
			return nil, fmt.Errorf("forest: reading %s: %w", name, err)
		}
		for _, c := range cs {
			c.Hydrate() // storage builds clusters field-wise; prime derived caches before sharing
		}
		return cs, nil
	}
	for _, e := range entries {
		level, idx, ok := parseLevelFileName(e.Name())
		if !ok {
			continue
		}
		cs, err := read(e.Name())
		if err != nil {
			if !lo.Recover {
				return nil, report, err
			}
			if qerr := faultfs.Quarantine(fsys, filepath.Join(dir, e.Name())); qerr != nil {
				return nil, report, fmt.Errorf("forest: quarantining %s: %w", e.Name(), qerr)
			}
			if m != nil {
				m.corrupt.Inc()
			}
			report.Quarantined = append(report.Quarantined, e.Name())
			continue
		}
		switch level {
		case "day":
			f.days[idx] = cs
		case "week":
			f.weeks[idx] = cs
		case "month":
			f.months[idx] = cs
		}
		for _, c := range cs {
			maxID = max(maxID, c.ID)
		}
	}
	advancePast(gen, maxID)
	return f, report, nil
}

// advancePast moves gen beyond id, so clusters merged after a load never
// reuse a loaded cluster's ID. Next and Reserve only ever add, so IDs
// minted concurrently stay unique; the result depends only on the
// generator's state and id.
func advancePast(gen *cluster.IDGen, id cluster.ID) {
	if id == 0 {
		return
	}
	if cur := gen.Next(); cur < id {
		gen.Reserve(int(id - cur))
	}
}

// levelFileName names the cluster file of one level index.
func levelFileName(level string, idx int) string {
	return fmt.Sprintf("%s-%05d.clu", level, idx)
}

// parseLevelFileName strictly parses a cluster file name back into its
// level and index. Strictness matters: crash debris ("day-00001.clu.tmp")
// and quarantined files ("day-00001.clu.corrupt") must not load, and the
// previous fmt.Sscanf matching accepted both.
func parseLevelFileName(name string) (level string, idx int, ok bool) {
	rest, found := strings.CutSuffix(name, ".clu")
	if !found {
		return "", 0, false
	}
	for _, lvl := range [...]string{"day", "week", "month"} {
		digits, found := strings.CutPrefix(rest, lvl+"-")
		if !found || digits == "" {
			continue
		}
		n, err := strconv.Atoi(digits)
		if err != nil || n < 0 {
			return "", 0, false
		}
		return lvl, n, true
	}
	return "", 0, false
}

// countingReader tracks bytes read through it for the storage counter.
type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// Stats summarizes the forest for diagnostics.
type Stats struct {
	Days        int
	MicroTotal  int
	WeeksCached int
	MonthCached int
}

// Stats returns current materialization counts.
func (f *Forest) Stats() Stats {
	f.mu.RLock()
	defer f.mu.RUnlock()
	s := Stats{Days: len(f.days), WeeksCached: len(f.weeks), MonthCached: len(f.months)}
	for _, m := range f.days {
		s.MicroTotal += len(m)
	}
	return s
}

// sortedKeys returns a map's integer keys in ascending order, pinning
// persistence order against Go's randomized map iteration.
func sortedKeys(m map[int][]*cluster.Cluster) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
