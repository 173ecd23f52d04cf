package main

import (
	"fmt"
	"math"
	"slices"

	"slidb"
	"slidb/internal/bench/tm1"
	"slidb/internal/bench/tpcb"
	"slidb/internal/bench/tpcc"
	"slidb/internal/workload"
)

// agents is the engine's agent-pool size in every workload: the core count
// of the 2-core machine the benchmark was sized on. It is fixed, not taken
// from the host, so runs on different machines drive the same engine.
const agents = 2

// spec describes one workload: the data it loads, the load it drives and
// the state it checks afterwards.
type spec struct {
	name    string
	why     string
	durable bool // OpenAt on a data directory with real fsync; else Open
	frames  int  // buffer-pool frames
	// clients blocking Exec callers; zero means one pipelined client
	// keeping depth ExecAsync futures outstanding.
	clients int
	depth   int
	// crashTxns is the number of transactions run between the post-run
	// checkpoint and the crash, so every run recovers the same log tail.
	crashTxns int64
	// stable lists the tables whose row count the mix never changes.
	stable []string
	load   func(e *slidb.Engine) error
	gen    func() (workload.Generator, error)
	// check verifies workload-specific invariants on the final engine;
	// acked and submitted count the commits acknowledged and the
	// transactions submitted over the engine's whole life after set-up.
	check func(e *slidb.Engine, acked, submitted int64) error
}

var workloadNames = []string{"tm1-mem", "tpcb-durable", "tpcc-durable"}

// newSpec returns the named workload sized for a timed run, or, with tiny,
// a small version of it for tests.
func newSpec(name string, seed int64, tiny bool) (*spec, error) {
	dataSeed := seed + 1 // the bench packages treat seed 0 as "use the default"
	pick := func(full, small int) int {
		if tiny {
			return small
		}
		return full
	}
	switch name {
	case "tm1-mem":
		cfg := tm1.Config{Subscribers: pick(20000, 500), Seed: dataSeed}
		return &spec{
			name:    name,
			why:     "short TM-1 transactions retake the same hot table and page intent locks, so the lock manager and SLI do most of the work and the log does little",
			frames:  4096,
			clients: agents,
			stable:  []string{tm1.TableSubscriber, tm1.TableAccessInfo},
			load:    func(e *slidb.Engine) error { return tm1.Load(e, cfg) },
			gen:     func() (workload.Generator, error) { return tm1.NewGenerator(cfg, tm1.MixNDBB) },
		}, nil
	case "tpcb-durable":
		cfg := tpcb.Config{Branches: 10, AccountsPerBranch: pick(10000, 100), Seed: dataSeed}
		return &spec{
			name:      name,
			why:       "all-update TPC-B on a durable log: the WAL (group commit, flusher, fsync) with ELR dominates, hot branch rows wait on locks, and the crash exercises recovery",
			durable:   true,
			frames:    4096,
			depth:     32,
			crashTxns: int64(pick(20000, 300)),
			stable:    []string{tpcb.TableBranches, tpcb.TableTellers, tpcb.TableAccounts},
			load:      func(e *slidb.Engine) error { return tpcb.Load(e, cfg) },
			gen:       func() (workload.Generator, error) { return tpcb.NewGenerator(cfg, tpcb.TxAccountUpdate) },
			check:     checkTPCB,
		}, nil
	case "tpcc-durable":
		cfg := tpcc.Config{Warehouses: pick(8, 1), Seed: dataSeed}
		return &spec{
			name:      name,
			why:       "the full TPC-C mix on data larger than the buffer pool stresses B+tree, heap, buffer eviction and record locks; it is the control on which SLI should not help",
			durable:   true,
			frames:    pick(256, 64),
			depth:     16,
			crashTxns: int64(pick(5000, 100)),
			stable:    []string{tpcc.TableWarehouse, tpcc.TableDistrict, tpcc.TableCustomer, tpcc.TableItem, tpcc.TableStock},
			load:      func(e *slidb.Engine) error { return tpcc.Load(e, cfg) },
			gen:       func() (workload.Generator, error) { return tpcc.NewGenerator(cfg, tpcc.MixFull) },
			check:     func(e *slidb.Engine, _, _ int64) error { return checkTPCC(e) },
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// config is the engine configuration cmd/slidbd ships (SLI, early lock
// release for commits and aborts, pipelined commits, the default
// group-commit window), with the agent count fixed and the profiler on
// only in traced runs.
func (w *spec) config(profile bool) slidb.Config {
	return slidb.Config{
		Agents:                 agents,
		SLI:                    true,
		EarlyLockRelease:       true,
		EarlyLockReleaseAborts: true,
		AsyncCommit:            true,
		BufferFrames:           w.frames,
		DropLogAfterFlush:      !w.durable,
		Profile:                profile,
	}
}

// countRows returns the number of rows in each table.
func countRows(e *slidb.Engine, tables []string) (map[string]int, error) {
	counts := map[string]int{}
	err := e.Exec(func(tx *slidb.Tx) error {
		for _, t := range tables {
			n := 0
			if err := tx.ScanTable(t, func(slidb.Row) bool { n++; return true }); err != nil {
				return err
			}
			counts[t] = n
		}
		return nil
	})
	return counts, err
}

// cents converts a money amount to whole cents. TPC-B deltas have two
// decimals, so each row's balance is a whole number of cents up to float
// rounding, and sums of cents compare exactly.
func cents(v float64) int64 { return int64(math.Round(v * 100)) }

// checkTPCB verifies money conservation — Σaccounts = Σtellers = Σbranches
// = Σhistory deltas — and that acknowledged commits were recovered: every
// committed transaction adds one history row, so acked ≤ history rows ≤
// submitted.
func checkTPCB(e *slidb.Engine, acked, submitted int64) error {
	var sums map[string]int64
	var history int64
	err := e.Exec(func(tx *slidb.Tx) error {
		sums = map[string]int64{} // a retried attempt starts over
		cols := map[string]int{tpcb.TableAccounts: 2, tpcb.TableTellers: 2, tpcb.TableBranches: 1, tpcb.TableHistory: 4}
		for _, t := range []string{tpcb.TableAccounts, tpcb.TableTellers, tpcb.TableBranches, tpcb.TableHistory} {
			var sum, n int64
			if err := tx.ScanTable(t, func(r slidb.Row) bool {
				sum += cents(r[cols[t]].AsFloat())
				n++
				return true
			}); err != nil {
				return err
			}
			sums[t] = sum
			if t == tpcb.TableHistory {
				history = n
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("tpcb check: %w", err)
	}
	h := sums[tpcb.TableHistory]
	if sums[tpcb.TableAccounts] != h || sums[tpcb.TableTellers] != h || sums[tpcb.TableBranches] != h {
		return fmt.Errorf("tpcb: money not conserved (cents): accounts=%d tellers=%d branches=%d history=%d",
			sums[tpcb.TableAccounts], sums[tpcb.TableTellers], sums[tpcb.TableBranches], h)
	}
	if history < acked || history > submitted {
		return fmt.Errorf("tpcb: %d history rows outside [acked %d, submitted %d]", history, acked, submitted)
	}
	return nil
}

// checkTPCC verifies TPC-C consistency conditions 1-3 for every district:
// W_YTD = ΣD_YTD; D_NEXT_O_ID-1 = max(O_ID) = max(NO_O_ID); and the
// NEW-ORDER row count equals max(NO_O_ID)-min(NO_O_ID)+1.
func checkTPCC(e *slidb.Engine) error {
	type dkey struct{ w, d int64 }
	type noRange struct{ min, max, n int64 }
	var (
		wYTD, dYTD      map[int64]float64
		nextOID, maxOID map[dkey]int64
		newOrders       map[dkey]*noRange
	)
	err := e.Exec(func(tx *slidb.Tx) error {
		// A retried attempt starts over.
		wYTD, dYTD = map[int64]float64{}, map[int64]float64{}
		nextOID, maxOID = map[dkey]int64{}, map[dkey]int64{}
		newOrders = map[dkey]*noRange{}
		if err := tx.ScanTable(tpcc.TableWarehouse, func(r slidb.Row) bool {
			wYTD[r[0].AsInt()] = r[3].AsFloat()
			return true
		}); err != nil {
			return err
		}
		if err := tx.ScanTable(tpcc.TableDistrict, func(r slidb.Row) bool {
			dYTD[r[0].AsInt()] += r[4].AsFloat()
			nextOID[dkey{r[0].AsInt(), r[1].AsInt()}] = r[5].AsInt()
			return true
		}); err != nil {
			return err
		}
		if err := tx.ScanTable(tpcc.TableOrders, func(r slidb.Row) bool {
			k := dkey{r[0].AsInt(), r[1].AsInt()}
			maxOID[k] = max(maxOID[k], r[2].AsInt())
			return true
		}); err != nil {
			return err
		}
		return tx.ScanTable(tpcc.TableNewOrder, func(r slidb.Row) bool {
			k, o := dkey{r[0].AsInt(), r[1].AsInt()}, r[2].AsInt()
			nr := newOrders[k]
			if nr == nil {
				nr = &noRange{min: o, max: o}
				newOrders[k] = nr
			}
			nr.min, nr.max, nr.n = min(nr.min, o), max(nr.max, o), nr.n+1
			return true
		})
	})
	if err != nil {
		return fmt.Errorf("tpcc check: %w", err)
	}
	if len(wYTD) == 0 || len(nextOID) == 0 {
		return fmt.Errorf("tpcc: no warehouses or districts")
	}
	for w, ytd := range wYTD {
		// Each payment adds the same amount to both sides; the two float
		// sums may differ only by rounding.
		if math.Abs(ytd-dYTD[w]) > 0.01+1e-9*math.Abs(ytd) {
			return fmt.Errorf("tpcc condition 1: warehouse %d W_YTD %.2f != ΣD_YTD %.2f", w, ytd, dYTD[w])
		}
	}
	keys := make([]dkey, 0, len(nextOID))
	for k := range nextOID {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b dkey) int {
		if a.w != b.w {
			return int(a.w - b.w)
		}
		return int(a.d - b.d)
	})
	for _, k := range keys {
		if nextOID[k]-1 != maxOID[k] {
			return fmt.Errorf("tpcc condition 2: district %v D_NEXT_O_ID-1 = %d, max(O_ID) = %d", k, nextOID[k]-1, maxOID[k])
		}
		nr := newOrders[k]
		if nr == nil {
			continue // every order delivered: conditions 2b and 3 are vacuous
		}
		if nr.max != maxOID[k] {
			return fmt.Errorf("tpcc condition 2: district %v max(NO_O_ID) = %d, max(O_ID) = %d", k, nr.max, maxOID[k])
		}
		if nr.n != nr.max-nr.min+1 {
			return fmt.Errorf("tpcc condition 3: district %v has %d NEW-ORDER rows for range [%d, %d]", k, nr.n, nr.min, nr.max)
		}
	}
	return nil
}
