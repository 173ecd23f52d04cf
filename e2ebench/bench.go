package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"

	"slidb"
	"slidb/internal/buffer"
	"slidb/internal/obs"
	"slidb/internal/profiler"
	"slidb/internal/workload"
)

// options selects and sizes one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dataDir  string // parent of the run's data directories
	root     string // source tree the engine was built from
	tiny     bool   // test-sized data (see newSpec)
	// setupReps is how many times the timed run sets the engine up; setup_s
	// is their median. recoveryReps does the same for recovery_s.
	setupReps    int
	recoveryReps int
	warmup       time.Duration
}

// metric is one reported number with the count of measurements behind it.
type metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
}

// result is everything one run reports and stores.
type result struct {
	Workload  string      `json:"workload"`
	Why       string      `json:"why"`
	Seconds   float64     `json:"seconds"`
	Traced    bool        `json:"traced"`
	Env       environment `json:"env"`
	Config    string      `json:"config"`
	Correct   bool        `json:"correct"`
	Checks    []string    `json:"check_failures"`
	Attempted int64       `json:"attempted"`
	Failed    int64       `json:"failed"`
	FirstErr  string      `json:"first_error,omitempty"`
	Metrics   []metric    `json:"metrics"`
	// Reported are printed and stored with the metrics but not gated (see
	// README.md): the 99th percentile, too unsteady on a shared 2-core
	// machine to bound; fail_ratio, failed ÷ attempted of the JSON line; and
	// on durable workloads recovery_s and log_bytes_per_tx.
	Reported  []metric   `json:"reported,omitempty"`
	SelfTimes []selfStat `json:"self_times,omitempty"`
	SampledTx int        `json:"sampled_tx,omitempty"`
	TraceFile string     `json:"trace_file,omitempty"`
	spans     []span
}

// bench is the state of one run.
type bench struct {
	o      options
	w      *spec
	gen    workload.Generator
	res    *result
	phases []span // phase spans; a traced run writes them out
	setups []setupTiming
	recs   []float64 // recovery wall times, s
	// peakHeap is the largest live heap seen at the ends of set-up,
	// recovery and warm-up, over heapSamples samples.
	peakHeap    uint64
	heapSamples int
	rstats      slidb.RecoveryStats
}

type setupTiming struct{ total, load, checkpoint float64 }

// snapshot is the engine and process counters the per-layer metrics are
// differences of.
type snapshot struct {
	at                     time.Time
	committed, aborted     uint64
	lock                   slidb.LockStats
	tail                   obs.LogTailStats
	buf                    buffer.StatsSnapshot
	prof                   profiler.Breakdown
	cpu                    time.Duration
	alloc, gcCPU, totalCPU float64
	walBytes               int64
}

// measured is the outcome of one timed interval.
type measured struct {
	tps, p50, p95, p99 float64
	lagN               int
	completed, failed  int64
	lag                float64
	genUS              float64
	before, after      snapshot
}

func run(o options) (*result, error) {
	w, err := newSpec(o.workload, o.seed, o.tiny)
	if err != nil {
		return nil, err
	}
	gen, err := w.gen()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.dataDir, 0o755); err != nil {
		return nil, err
	}
	b := &bench{o: o, w: w, gen: gen, res: &result{
		Workload: w.name,
		Why:      w.why,
		Seconds:  o.seconds,
		Traced:   o.trace,
		Env:      collectEnv(o.root, o.dataDir, o.seed),
		Config:   fmt.Sprintf("%+v", w.config(o.trace)),
	}}
	dir, err := os.MkdirTemp(o.dataDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if o.trace {
		err = b.traced(dir)
	} else {
		err = b.timed(dir)
	}
	if err != nil {
		return nil, err
	}
	b.res.Correct = len(b.res.Checks) == 0
	return b.res, nil
}

// timed is the run the end-to-end metrics come from: profiler off, no spans.
func (b *bench) timed(dir string) error {
	var e *slidb.Engine
	for i := 0; i < b.o.setupReps; i++ {
		if e != nil {
			if err := e.Close(); err != nil {
				return fmt.Errorf("closing set-up engine: %w", err)
			}
		}
		var err error
		if e, err = b.setup(dir, false); err != nil {
			return err
		}
	}
	final, m, err := b.exercise(e, dir, false)
	if err != nil {
		return err
	}
	b.account(m)
	b.res.Metrics = []metric{
		{"tps", "1/s", m.tps, int(m.completed)},
		{"lat_p50_us", "us", m.p50, int(m.completed)},
		{"lat_p95_us", "us", m.p95, int(m.completed)},
		{"setup_s", "s", median(b.setupField(func(s setupTiming) float64 { return s.total })), len(b.setups)},
		{"mem_peak_mb", "MB", float64(b.peakHeap) / (1 << 20), b.heapSamples},
	}
	b.res.Reported = []metric{
		{"lat_p99_us", "us", m.p99, int(m.completed)},
		{"fail_ratio", "ratio", float64(m.failed) / float64(max(b.res.Attempted, 1)), int(b.res.Attempted)},
	}
	if b.w.durable {
		b.res.Reported = append(b.res.Reported,
			metric{"recovery_s", "s", median(b.recs), len(b.recs)},
			metric{"log_bytes_per_tx", "B/tx", m.logBytesPerTx(), int(m.completed)})
	}
	return closeChecked(final)
}

// traced measures the same workload twice, first untraced as the reference
// for trace.overhead_ratio, then with the profiler on and spans recorded;
// the per-layer metrics come from the second pass.
func (b *bench) traced(dir string) error {
	ref, err := b.setup(dir, false)
	if err != nil {
		return err
	}
	refM := b.measure(ref, b.clients(ref, false), dir)
	b.engineChecks("untraced pass", ref)
	if err := closeChecked(ref); err != nil {
		return err
	}
	e, err := b.setup(dir, true)
	if err != nil {
		return err
	}
	final, m, err := b.exercise(e, dir, true)
	if err != nil {
		return err
	}
	b.account(m)
	b.res.spans = append(b.res.spans, b.phases...)
	b.res.SelfTimes = selfTimes(b.res.spans)
	b.res.Metrics = b.layerMetrics(m, 1-m.tps/refM.tps)
	return closeChecked(final)
}

// exercise runs the workload on e, a freshly set-up engine. A durable
// workload first runs its fixed crash phase and recovers; then every
// workload is measured and checked. It returns the engine the run ended
// on, still open.
func (b *bench) exercise(e *slidb.Engine, dir string, traced bool) (*slidb.Engine, measured, error) {
	stable, err := countRows(e, b.w.stable)
	if err != nil {
		return nil, measured{}, fmt.Errorf("counting rows: %w", err)
	}
	cs := b.clients(e, traced)
	if b.w.durable {
		if e, err = b.crashAndRecover(e, cs, dir, traced); err != nil {
			return nil, measured{}, err
		}
		b.verify("after recovery", e, cs, stable)
	}
	m := b.measure(e, cs, dir)
	for _, c := range cs {
		if c.firstErr != nil && b.res.FirstErr == "" {
			b.res.FirstErr = c.firstErr.Error()
		}
		if c.spans != nil {
			b.res.spans = append(b.res.spans, c.spans.spans...)
			b.res.SampledTx += c.spans.sampledTx()
		}
	}
	b.verify("end of run", e, cs, stable)
	return e, m, nil
}

// setup opens an engine (removing any previous data directory), loads the
// workload's data and, on durable engines, checkpoints it.
func (b *bench) setup(dir string, profile bool) (*slidb.Engine, error) {
	runtime.GC()
	t0 := nowNS()
	var e *slidb.Engine
	if b.w.durable {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		var err error
		if e, err = slidb.OpenAt(dir, b.w.config(profile)); err != nil {
			return nil, fmt.Errorf("open: %w", err)
		}
	} else {
		e = slidb.Open(b.w.config(profile))
	}
	t1 := nowNS()
	if err := b.w.load(e); err != nil {
		e.Close()
		return nil, fmt.Errorf("load: %w", err)
	}
	t2 := nowNS()
	if b.w.durable {
		if err := e.Checkpoint(); err != nil {
			e.Close()
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
	}
	t3 := nowNS()
	b.notePeakHeap()
	b.setups = append(b.setups, setupTiming{total: float64(t3-t0) / 1e9, load: float64(t2-t1) / 1e9, checkpoint: float64(t3-t2) / 1e9})
	b.spanAt("setup.open", "setup", t0, t1)
	b.spanAt("setup.load", "setup", t1, t2)
	b.spanAt("setup.checkpoint", "setup", t2, t3)
	b.spanAt("setup", "", t0, t3)
	return e, nil
}

func (b *bench) clients(e *slidb.Engine, traced bool) []*client {
	n, async := b.w.clients, false
	if n == 0 {
		n, async = 1, true
	}
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = newClient(i, e, b.gen, b.o.seed*1000+int64(i), b.w.depth, async, traced)
	}
	return cs
}

// drive runs every client on its own goroutine until stop (or until each
// has issued max transactions, max >= 0) and waits for all of them.
func drive(cs []*client, stop time.Time, max int64) {
	var wg sync.WaitGroup
	wg.Add(len(cs))
	for _, c := range cs {
		go func() {
			defer wg.Done()
			c.run(stop, max)
		}()
	}
	wg.Wait()
}

// measure warms the engine up, then drives it for the run's measured
// interval and aggregates what the clients recorded.
func (b *bench) measure(e *slidb.Engine, cs []*client, dir string) measured {
	var m measured
	t0 := nowNS()
	for _, c := range cs {
		c.setWindow(window{})
	}
	drive(cs, time.Now().Add(b.o.warmup), -1)
	b.span("warmup", "", t0)
	b.notePeakHeap()
	dur := time.Duration(b.o.seconds * float64(time.Second))
	m.before = takeSnapshot(e, dir)
	t1 := nowNS()
	win := window{start: time.Now()}
	win.end = win.start.Add(dur)
	for _, c := range cs {
		c.setWindow(win)
	}
	drive(cs, win.end, -1)
	m.after = takeSnapshot(e, dir)
	b.span("measure", "", t1)

	var lat hist
	var lag []float64
	var genNS, genCount int64
	for _, c := range cs {
		lat.merge(&c.lat)
		m.failed += c.failed
		lag = append(lag, c.lag...)
		genNS += c.genNS
		genCount += c.genCount
	}
	m.completed = lat.n
	m.tps = float64(lat.n) / dur.Seconds()
	m.p50, m.p95, m.p99 = lat.percentileUS(50), lat.percentileUS(95), lat.percentileUS(99)
	m.lag, m.lagN = median(lag), len(lag)
	if genCount > 0 {
		m.genUS = float64(genNS) / float64(genCount) / 1e3
	}
	return m
}

// crashAndRecover runs the workload's fixed crash-phase transaction count
// on e (whose set-up ended with a checkpoint, so every run recovers the
// same log tail), crashes it with the client's pipeline full of
// outstanding futures, and reopens the directory recoveryReps times
// (crashing each recovered engine but the last again), timing each OpenAt.
// The clients are pointed at the recovered engine.
func (b *bench) crashAndRecover(e *slidb.Engine, cs []*client, dir string, profile bool) (*slidb.Engine, error) {
	t0 := nowNS()
	c := cs[0]
	c.setWindow(window{})
	c.run(time.Now().Add(time.Hour), b.w.crashTxns)
	c.fill(len(c.slots))
	b.engineChecks("before the crash", e)
	e.SimulateCrash()
	c.run(time.Time{}, 0) // collect the outcomes of the transactions the crash cut off
	b.span("crash", "", t0)

	var rec *slidb.Engine
	for i := 0; i < b.o.recoveryReps; i++ {
		if rec != nil {
			b.engineChecks("after recovery", rec)
			rec.SimulateCrash()
		}
		t1 := nowNS()
		var err error
		if rec, err = slidb.OpenAt(dir, b.w.config(profile)); err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
		t2 := nowNS()
		b.recs = append(b.recs, float64(t2-t1)/1e9)
		b.spanAt("recovery.open", "", t1, t2)
	}
	b.rstats = rec.RecoveryStats()
	b.notePeakHeap()
	for _, c := range cs {
		c.eng = rec
	}
	return rec, nil
}

// notePeakHeap collects garbage and records the live heap if it is the
// largest of the run so far. Sampling the live heap at fixed points of the
// run, rather than the resident set at its peak, keeps the figure
// independent of when the collector happened to run.
func (b *bench) notePeakHeap() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.peakHeap = max(b.peakHeap, ms.HeapAlloc)
	b.heapSamples++
}

// engineChecks records a failure when the engine could not roll a
// transaction back or its log is wedged.
func (b *bench) engineChecks(when string, e *slidb.Engine) {
	if n := e.UndoFailures(); n != 0 {
		b.fail(when, "%d undo failures", n)
	}
	if err := e.LogErr(); err != nil {
		b.fail(when, "log wedged: %v", err)
	}
}

// verify runs every correctness check on e: the engine's own health, the
// row counts the mix never changes, and the workload's invariants over
// what the clients submitted and were acknowledged.
func (b *bench) verify(when string, e *slidb.Engine, cs []*client, stable map[string]int) {
	t0 := nowNS()
	defer b.span("check", "", t0)
	b.engineChecks(when, e)
	now, err := countRows(e, b.w.stable)
	if err != nil {
		b.fail(when, "counting rows: %v", err)
	}
	for _, t := range b.w.stable {
		if now[t] != stable[t] {
			b.fail(when, "%s has %d rows, had %d after set-up", t, now[t], stable[t])
		}
	}
	if b.w.check == nil {
		return
	}
	var acked, submitted int64
	for _, c := range cs {
		acked += c.acked
		submitted += c.submitted
	}
	if err := b.w.check(e, acked, submitted); err != nil {
		b.fail(when, "%v", err)
	}
}

func (b *bench) fail(when, format string, args ...any) {
	b.res.Checks = append(b.res.Checks, when+": "+fmt.Sprintf(format, args...))
}

// account records the measured interval's attempt and failure counts.
func (b *bench) account(m measured) {
	b.res.Attempted = m.completed + m.failed
	b.res.Failed = m.failed
}

func (b *bench) span(name, parent string, start int64) { b.spanAt(name, parent, start, nowNS()) }

func (b *bench) spanAt(name, parent string, start, end int64) {
	b.phases = append(b.phases, span{name: name, parent: parent, key: phaseKey, start: start, end: end})
}

func (b *bench) setupField(f func(setupTiming) float64) []float64 {
	out := make([]float64, len(b.setups))
	for i, s := range b.setups {
		out[i] = f(s)
	}
	return out
}

// logBytesPerTx is the growth of the WAL segment files over the measured
// interval per committed transaction (zero in memory).
func (m measured) logBytesPerTx() float64 {
	commits := m.after.committed - m.before.committed
	if commits == 0 {
		return 0
	}
	return float64(m.after.walBytes-m.before.walBytes) / float64(commits)
}

// closeChecked closes e and fails on a close error: a durable engine that
// cannot drain its log on a clean shutdown is broken.
func closeChecked(e *slidb.Engine) error {
	if err := e.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	return nil
}

var runtimeSamples = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func takeSnapshot(e *slidb.Engine, dir string) snapshot {
	s := snapshot{
		at:        time.Now(),
		committed: e.Committed(),
		aborted:   e.Aborted(),
		lock:      e.LockStats(),
		tail:      e.LogTail(),
		buf:       e.BufferStats(),
		prof:      e.Profiler().Aggregate(),
		walBytes:  segmentBytes(dir),
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	rs := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		rs[i].Name = n
	}
	metrics.Read(rs)
	value := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	s.alloc, s.gcCPU, s.totalCPU = value(rs[0].Value), value(rs[1].Value), value(rs[2].Value)
	return s
}

// segmentBytes sums the sizes of the WAL segment files under dir (zero for
// in-memory engines, whose directory stays empty).
func segmentBytes(dir string) int64 {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(d.Name(), ".seg") {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return 0
	}
	return total
}
