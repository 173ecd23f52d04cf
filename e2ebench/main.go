// Command e2ebench is slidb's end-to-end benchmark. It drives the engine
// through its public API as an embedder would, on one of three workloads
// (tm1-mem, tpcb-durable, tpcc-durable), checks that every result is
// correct, and prints the end-to-end metrics — or, with --trace 1, the
// per-layer metrics, a self-time table and a Chrome trace-event file. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {"tps": {"value": ..., "unit": "1/s"}, ...}}
//
// It exits 1 when a correctness check fails and 2 when the run could not
// complete. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
		seed    = flag.Int64("seed", 1, "seed of the generated data and transaction inputs")
		seconds = flag.Float64("seconds", 25, "length of the measured interval, in seconds")
		trace   = flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
		dataDir = flag.String("datadir", ".bench_build/data", "directory for the run's data directories (removed when the run ends)")
		outDir  = flag.String("out", ".bench_build/results", "directory the result record and the trace file are written to")
	)
	flag.Parse()
	if *name == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	res, err := run(options{
		workload:     *name,
		seed:         *seed,
		seconds:      *seconds,
		trace:        *trace == 1,
		dataDir:      *dataDir,
		root:         root,
		setupReps:    5,
		recoveryReps: 3,
		warmup:       time.Second,
	})
	if err == nil {
		err = store(res, *outDir, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	report(os.Stdout, res)
	if !res.Correct {
		os.Exit(1)
	}
}

// store writes the result record, and for a traced run the span file, to
// outDir.
func store(res *result, outDir string, seed int64) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	mode := "timed"
	if res.Traced {
		mode = "traced"
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-%s-%s", res.Workload, seed, mode, time.Now().UTC().Format("20060102T150405")))
	if res.Traced {
		res.TraceFile = base + ".trace.json"
		if err := writeFile(res.TraceFile, func(w io.Writer) error { return writeChromeTrace(w, res.spans) }); err != nil {
			return err
		}
	}
	return writeFile(base+".json", func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	})
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// report prints the human-readable result and, as the last line, the JSON
// summary.
func report(w io.Writer, res *result) {
	mode := "timed"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "e2ebench %s %s run, %gs measured\n", res.Workload, mode, res.Seconds)
	fmt.Fprintf(w, "workload: %s\n", res.Why)
	fmt.Fprintf(w, "env: %s\n", res.Env)
	fmt.Fprintf(w, "engine: %s\n", res.Config)
	fmt.Fprintf(w, "%-34s %14s  %-8s %s\n", "metric", "value", "unit", "samples")
	for _, m := range res.Metrics {
		fmt.Fprintf(w, "%-34s %14.4f  %-8s %d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	for _, m := range res.Reported {
		fmt.Fprintf(w, "%-34s %14.4f  %-8s %d  (reported, not gated)\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	if res.FirstErr != "" {
		fmt.Fprintf(w, "first unexpected error: %s\n", res.FirstErr)
	}
	if res.Traced {
		fmt.Fprintf(w, "self time by span (%d sampled transactions):\n", res.SampledTx)
		fmt.Fprintf(w, "  %-18s %9s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "self_us_avg")
		for _, s := range res.SelfTimes {
			fmt.Fprintf(w, "  %-18s %9d %12.3f %12.3f %12.3f\n", s.Name, s.Count, s.TotalMS, s.SelfMS, 1e3*s.SelfMS/float64(s.Count))
		}
		fmt.Fprintf(w, "trace: %s\n", res.TraceFile)
	}
	if res.Correct {
		fmt.Fprintln(w, "checks: all passed")
	}
	for _, c := range res.Checks {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", c)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, m := range res.Metrics {
		ms[m.Name] = value{m.Value, m.Unit}
	}
	line, _ := json.Marshal(struct { // a map of floats and strings always marshals
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, ms})
	fmt.Fprintln(w, string(line))
}
