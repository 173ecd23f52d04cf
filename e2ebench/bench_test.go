package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"slidb"
	"slidb/internal/bench/tpcb"
	"slidb/internal/bench/tpcc"
)

func TestMedian(t *testing.T) {
	in := []float64{5, 1, 3}
	if got := median(in); got != 3 {
		t.Errorf("median odd = %g, want 3", got)
	}
	if in[0] != 5 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %g, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		// Parent [0,100) with overlapping children [10,30) and [20,50), and
		// one [90,120) that sticks out of it: covered = 40 + 10.
		{name: "p", key: 1, start: 0, end: 100},
		{name: "c", parent: "p", key: 1, start: 10, end: 30},
		{name: "c", parent: "p", key: 1, start: 20, end: 50},
		{name: "c", parent: "p", key: 1, start: 90, end: 120},
		// A grandchild is subtracted from its parent only.
		{name: "g", parent: "c", key: 1, start: 12, end: 14},
		// Another instance's child does not cover this parent.
		{name: "p", key: 2, start: 0, end: 10},
		{name: "c", parent: "p", key: 3, start: 0, end: 10},
	}
	got := map[string]selfStat{}
	for _, s := range selfTimes(spans) {
		got[s.Name] = s
	}
	want := map[string]selfStat{
		"p": {Name: "p", Count: 2, TotalMS: 110e-6, SelfMS: 60e-6},
		"c": {Name: "c", Count: 4, TotalMS: 90e-6, SelfMS: 88e-6},
		"g": {Name: "g", Count: 1, TotalMS: 2e-6, SelfMS: 2e-6},
	}
	for name, w := range want {
		g := got[name]
		if g.Count != w.Count || math.Abs(g.TotalMS-w.TotalMS) > 1e-12 || math.Abs(g.SelfMS-w.SelfMS) > 1e-12 {
			t.Errorf("%s: got %+v, want %+v", name, g, w)
		}
	}
	if rows := selfTimes(spans); rows[0].Name != "c" {
		t.Errorf("rows not ordered by self time: first is %q", rows[0].Name)
	}
}

func TestSpanBufThinsEvenly(t *testing.T) {
	b := newSpanBuf(16) // four transactions
	for seq := int64(0); seq < 64; seq++ {
		if b.wants(seq) {
			b.addTx(seq, 0, 1, 2, 3, 4)
		}
	}
	if b.stride < 16 || b.sampledTx() > 4 || b.sampledTx() < 2 {
		t.Fatalf("stride %d, %d sampled", b.stride, b.sampledTx())
	}
	for _, s := range b.spans {
		if s.key%b.stride != 0 {
			t.Errorf("kept transaction %d, not a multiple of stride %d", s.key, b.stride)
		}
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	b := newSpanBuf(8)
	b.addTx(1<<clientKeyBit|3, 2, 1000, 2000, 5000, 9000)
	spans := append(b.spans, span{name: "setup", key: phaseKey, start: 0, end: 500})
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("%d events, want 5", len(doc.TraceEvents))
	}
	body := doc.TraceEvents[2]
	if body.Name != spanBody || body.TS != 2 || body.Dur != 3 || body.PID != 1 || body.Args["client"] != 1 || body.Args["seq"] != 3 {
		t.Errorf("body event = %+v", body)
	}
}

// benchmarkNames reads the workload and metric names BENCHMARK.json
// declares.
func benchmarkNames(t *testing.T) (workloads, endToEnd, perLayer []string) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range doc.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range doc.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return workloads, endToEnd, perLayer
}

// TestBenchmarkWorkloadsExist checks that every workload BENCHMARK.json
// lists is one the program runs.
func TestBenchmarkWorkloadsExist(t *testing.T) {
	workloads, _, _ := benchmarkNames(t)
	if len(workloads) < 2 {
		t.Errorf("BENCHMARK.json lists %v, want at least two workloads", workloads)
	}
	for _, name := range workloads {
		if !slices.Contains(workloadNames, name) {
			t.Errorf("BENCHMARK.json lists workload %q; the program runs %v", name, workloadNames)
		}
	}
}

// TestSmokeEveryWorkload runs each workload at tiny scale, timed and
// traced, and checks that it passes its correctness checks and emits
// exactly the metrics BENCHMARK.json names.
func TestSmokeEveryWorkload(t *testing.T) {
	_, endToEnd, perLayer := benchmarkNames(t)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, err := run(options{
				workload:     name,
				seed:         3,
				seconds:      0.3,
				trace:        traced,
				dataDir:      t.TempDir(),
				root:         "..",
				tiny:         true,
				setupReps:    2,
				recoveryReps: 2,
				warmup:       50 * time.Millisecond,
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct {
				t.Errorf("%s traced=%v: checks failed: %v", name, traced, res.Checks)
			}
			if res.Attempted == 0 {
				t.Errorf("%s traced=%v: nothing attempted", name, traced)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			var got []string
			for _, m := range res.Metrics {
				got = append(got, m.Name)
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v", name, m.Name, m.Value)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, m.Value)
				}
			}
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s traced=%v emits\n  %v\nBENCHMARK.json names\n  %v", name, traced, got, want)
			}
			if traced && (res.SampledTx == 0 || len(res.SelfTimes) == 0) {
				t.Errorf("%s: traced run recorded %d transactions, %d self-time rows", name, res.SampledTx, len(res.SelfTimes))
			}
		}
	}
}

func tinyEngine(t *testing.T, load func(*slidb.Engine) error) *slidb.Engine {
	t.Helper()
	e := slidb.Open(slidb.Config{Agents: agents, SLI: true})
	t.Cleanup(func() { e.Close() })
	if err := load(e); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestTPCBCheckCatchesUnbalancedRow moves money into one account without
// the matching teller, branch and history changes: conservation must fail.
func TestTPCBCheckCatchesUnbalancedRow(t *testing.T) {
	e := tinyEngine(t, func(e *slidb.Engine) error {
		return tpcb.Load(e, tpcb.Config{Branches: 2, AccountsPerBranch: 20})
	})
	if err := checkTPCB(e, 0, 0); err != nil {
		t.Fatalf("freshly loaded data fails the check: %v", err)
	}
	err := e.Exec(func(tx *slidb.Tx) error {
		return tx.Update(tpcb.TableAccounts, []slidb.Value{slidb.Int(7)}, func(r slidb.Row) (slidb.Row, error) {
			r[2] = slidb.Float(r[2].AsFloat() + 5)
			return r, nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTPCB(e, 0, 0); err == nil || !strings.Contains(err.Error(), "not conserved") {
		t.Fatalf("unbalanced account passed the check: %v", err)
	}
}

// TestTPCBCheckCatchesLostCommit reports more acknowledged commits than
// history rows: the acknowledged-implies-recovered bound must fail.
func TestTPCBCheckCatchesLostCommit(t *testing.T) {
	e := tinyEngine(t, func(e *slidb.Engine) error {
		return tpcb.Load(e, tpcb.Config{Branches: 1, AccountsPerBranch: 10})
	})
	if err := checkTPCB(e, 1, 1); err == nil || !strings.Contains(err.Error(), "history rows") {
		t.Fatalf("one acknowledged commit without a history row passed the check: %v", err)
	}
}

// TestTPCCCheckCatchesSkippedOrderID advances a district's next order id
// without creating the order: condition 2 must fail.
func TestTPCCCheckCatchesSkippedOrderID(t *testing.T) {
	e := tinyEngine(t, func(e *slidb.Engine) error {
		return tpcc.Load(e, tpcc.Config{Warehouses: 1, Items: 50, CustomersPerDistrict: 10})
	})
	if err := checkTPCC(e); err != nil {
		t.Fatalf("freshly loaded data fails the check: %v", err)
	}
	err := e.Exec(func(tx *slidb.Tx) error {
		return tx.Update(tpcc.TableDistrict, []slidb.Value{slidb.Int(1), slidb.Int(3)}, func(r slidb.Row) (slidb.Row, error) {
			r[5] = slidb.Int(r[5].AsInt() + 1)
			return r, nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTPCC(e); err == nil || !strings.Contains(err.Error(), "condition 2") {
		t.Fatalf("skipped order id passed the check: %v", err)
	}
}

func TestHistPercentileOnKnownInputs(t *testing.T) {
	var h hist
	for us := 1; us <= 1000; us++ {
		h.add(time.Duration(us) * time.Microsecond)
	}
	for _, c := range []struct{ p, want float64 }{{50, 500}, {99, 990}, {100, 1000}} {
		got := h.percentileUS(c.p)
		if math.Abs(got-c.want)/c.want > 1.0/(1<<subBits) {
			t.Errorf("p%g = %g us, want %g within one bucket", c.p, got, c.want)
		}
	}
	var exact hist
	exact.add(300 * time.Nanosecond) // below 2^(subBits+1) ns buckets are 1 ns wide
	if got := exact.percentileUS(50); got != 0.301 {
		t.Errorf("single 300ns sample: p50 = %g us, want 0.301", got)
	}
	var empty hist
	if got := empty.percentileUS(50); got != 0 {
		t.Errorf("empty p50 = %g", got)
	}
	// Every bucket's lower bound maps back to the bucket, and buckets tile
	// the range without gaps.
	for b := 1; b < histBuckets; b++ {
		lo, _ := bucketBounds(b)
		_, prevHi := bucketBounds(b - 1)
		if bucketOf(lo) != b || lo != prevHi {
			t.Fatalf("bucket %d: lo %d maps to %d, previous hi %d", b, lo, bucketOf(lo), prevHi)
		}
	}
}
