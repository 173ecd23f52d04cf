package slint

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/cfg"
	"golang.org/x/tools/go/types/typeutil"
)

// ProfTimer checks that profiler timings are stopped on every return path.
//
// The measurement convention in this codebase is
//
//	start := time.Now()
//	... work ...
//	prof.Add(profiler.CatX, time.Since(start))
//
// (sometimes through an intermediate: total := time.Since(start); then
// total feeds one or more Add calls, as appendTimed does when it splits a
// total into reserve-wait, buffer-full-wait and the work category), or its
// clock-free form through the Handle's own pair, which reads no clock on a
// nil handle:
//
//	start := prof.Start()
//	... work ...
//	prof.AddSince(profiler.CatX, start)  // or start.Add(excludedWait)
//
// with profiler.Since(start) standing in for time.Since where the elapsed
// time feeds several Add calls. If an early error return skips the stop,
// that category silently under-reports exactly when something interesting
// happened — the flush that failed is the flush you wanted attributed.
//
// The analyzer considers a timer "owned by the profiler" when it is stopped
// by an AddSince that mentions it, or when some time.Since/profiler.Since
// result reaches a profiler.Handle Add or Timed call, directly or through
// one intermediate variable. For each such timer whose
// start is unconditional (not nested in an if/for/switch/select), it walks
// the function's control-flow graph from the start: reaching any return
// statement without passing a time.Since(start) is reported. A deferred
// stop covers all paths. Conditionally-started timers (the applyUndo
// "if tx.prof != nil" pattern) are out of scope — the condition, not the
// path, decides whether timing happens.
var ProfTimer = &analysis.Analyzer{
	Name: "proftimer",
	Doc:  "check every profiler category start reaches its time.Since stop on all return paths",
	Run:  runProfTimer,
}

func runProfTimer(pass *analysis.Pass) (interface{}, error) {
	idx := buildDirectiveIndex(pass)
	for _, file := range pass.Files {
		parents := buildParentMap(file)
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkTimerFunc(pass, idx, parents, fn, fn.Body)
				}
			case *ast.FuncLit:
				checkTimerFunc(pass, idx, parents, fn, fn.Body)
			}
			return true
		})
	}
	return nil, nil
}

// timer is one candidate start := time.Now() (or Handle.Start()) in a
// function body.
type timer struct {
	obj   types.Object    // the start variable
	start *ast.AssignStmt // the statement that starts it
	since []*ast.CallExpr // every stop: Since(start), or AddSince(c, ...start...)
}

func checkTimerFunc(pass *analysis.Pass, idx *directiveIndex, parents map[ast.Node]ast.Node, fnNode ast.Node, body *ast.BlockStmt) {
	timers := collectTimers(pass, fnNode, body)
	if len(timers) == 0 {
		return
	}

	var g *cfg.CFG // built lazily; several timers share it
	for _, t := range timers {
		if len(t.since) == 0 {
			continue // never stopped at all; out of scope (may be a deadline var)
		}
		if !feedsProfiler(pass, parents, t) {
			continue
		}
		if !unconditionalStart(parents, fnNode, t.start) {
			continue
		}
		if deferredStop(parents, fnNode, t) {
			continue
		}
		if g == nil {
			g = cfg.New(body, mayReturn)
		}
		for _, ret := range leakyReturns(g, t) {
			report(pass, idx, ret,
				"return without stopping profiler timing %q (started at line %d): the category under-reports on this path — add the time.Since/Add before returning or defer it",
				t.obj.Name(), pass.Fset.Position(t.start.Pos()).Line)
		}
	}
}

// collectTimers finds `v := time.Now()` and `v := h.Start()` starts and
// their `time.Since(v)`, `profiler.Since(v)` and `h.AddSince(c, ...v...)`
// stops in body. Starts nested in an inner function literal belong to that
// literal's own scope and are skipped here; stops are collected from
// anywhere in the body (a closure stopping an outer timer still counts as a
// stop).
func collectTimers(pass *analysis.Pass, fnNode ast.Node, body *ast.BlockStmt) []*timer {
	byObj := make(map[types.Object]*timer)
	var order []*timer
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !(isTimeCall(pass, call, "Now") || isProfilerCall(pass, call, "Start")) {
			return true
		}
		obj := pass.TypesInfo.ObjectOf(id)
		if obj == nil || byObj[obj] != nil {
			return true
		}
		t := &timer{obj: obj, start: as}
		byObj[obj] = t
		order = append(order, t)
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case (isTimeCall(pass, call, "Since") || isProfilerCall(pass, call, "Since")) && len(call.Args) == 1:
			id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
			if !ok {
				return true
			}
			if t := byObj[pass.TypesInfo.ObjectOf(id)]; t != nil {
				t.since = append(t.since, call)
			}
		case isProfilerCall(pass, call, "AddSince") && len(call.Args) == 2:
			// The start may be shifted past an excluded wait:
			// AddSince(c, start.Add(wait)) still stops start.
			seen := make(map[*timer]bool)
			ast.Inspect(call.Args[1], func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				if t := byObj[pass.TypesInfo.ObjectOf(id)]; t != nil && !seen[t] {
					seen[t] = true
					t.since = append(t.since, call)
				}
				return true
			})
		}
		return true
	})
	return order
}

// feedsProfiler reports whether any Since(start) result reaches a
// profiler Add/Timed call, directly or via one intermediate variable.
func feedsProfiler(pass *analysis.Pass, parents map[ast.Node]ast.Node, t *timer) bool {
	var viaVars []types.Object
	for _, s := range t.since {
		if enclosingProfilerCall(pass, parents, s) != nil {
			return true
		}
		// total := time.Since(start) — remember total.
		if as, ok := parents[s].(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 && as.Rhs[0] == ast.Expr(s) {
			if id, ok := as.Lhs[0].(*ast.Ident); ok {
				if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
					viaVars = append(viaVars, obj)
				}
			}
		}
	}
	if len(viaVars) == 0 {
		return false
	}
	// Does any profiler call use one of the intermediates in its arguments?
	found := false
	for n := range parents {
		id, ok := n.(*ast.Ident)
		if !ok || found {
			continue
		}
		obj := pass.TypesInfo.ObjectOf(id)
		for _, v := range viaVars {
			if obj == v && enclosingProfilerCall(pass, parents, id) != nil {
				found = true
			}
		}
	}
	return found
}

// enclosingProfilerCall climbs from n and returns a profiler.Handle
// Add/AddSince/Timed call that is n or whose argument list contains n, or
// nil.
func enclosingProfilerCall(pass *analysis.Pass, parents map[ast.Node]ast.Node, n ast.Node) *ast.CallExpr {
	for cur := n; cur != nil; cur = parents[cur] {
		call, ok := cur.(*ast.CallExpr)
		if !ok {
			continue
		}
		fn, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
		if !ok {
			continue
		}
		if (fn.Name() == "Add" || fn.Name() == "AddSince" || fn.Name() == "Timed") && fromPkg(fn.Pkg(), "profiler") {
			return call
		}
	}
	return nil
}

// unconditionalStart reports whether the start statement executes on every
// invocation of the function: every ancestor between it and the function
// body is a plain block.
func unconditionalStart(parents map[ast.Node]ast.Node, fnNode ast.Node, start ast.Stmt) bool {
	for cur := parents[ast.Node(start)]; cur != nil; cur = parents[cur] {
		if cur == fnNode {
			return true
		}
		if _, ok := cur.(*ast.BlockStmt); !ok {
			return false
		}
	}
	return false
}

// deferredStop reports whether some Since(start) sits under a defer in this
// function, which covers every return path at once.
func deferredStop(parents map[ast.Node]ast.Node, fnNode ast.Node, t *timer) bool {
	for _, s := range t.since {
		for cur := ast.Node(s); cur != nil && cur != fnNode; cur = parents[cur] {
			if _, ok := cur.(*ast.DeferStmt); ok {
				return true
			}
		}
	}
	return false
}

// leakyReturns walks the CFG from the timer start and returns every return
// statement reachable without passing a time.Since(start).
func leakyReturns(g *cfg.CFG, t *timer) []*ast.ReturnStmt {
	// Locate the start statement's block and index.
	var startBlock *cfg.Block
	startIdx := -1
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			if n == ast.Node(t.start) {
				startBlock, startIdx = b, i
				break
			}
		}
		if startBlock != nil {
			break
		}
	}
	if startBlock == nil {
		return nil // start not in the graph (e.g. dead code); nothing to prove
	}

	containsStop := func(n ast.Node) bool {
		for _, s := range t.since {
			if s.Pos() >= n.Pos() && s.End() <= n.End() {
				return true
			}
		}
		return false
	}

	var leaks []*ast.ReturnStmt
	seen := make(map[*cfg.Block]bool)
	type item struct {
		b *cfg.Block
		i int
	}
	work := []item{{startBlock, startIdx + 1}}
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		stopped := false
		for j := it.i; j < len(it.b.Nodes); j++ {
			n := it.b.Nodes[j]
			if containsStop(n) {
				stopped = true
				break
			}
			if ret, ok := n.(*ast.ReturnStmt); ok {
				leaks = append(leaks, ret)
				stopped = true // the path ends here either way
				break
			}
		}
		if stopped {
			continue
		}
		for _, succ := range it.b.Succs {
			if !seen[succ] {
				seen[succ] = true
				work = append(work, item{succ, 0})
			}
		}
	}
	return leaks
}

// isTimeCall reports whether call is time.<name>(...).
func isTimeCall(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	fn, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
	return ok && fn.Name() == name && isStdPkg(fn.Pkg(), "time")
}

// isProfilerCall reports whether call is the profiler package's function or
// method <name>.
func isProfilerCall(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	fn, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
	return ok && fn.Name() == name && fromPkg(fn.Pkg(), "profiler")
}

// mayReturn is the CFG builder's intraprocedural "can this call return"
// heuristic: panic and the conventional fatal exits cannot.
func mayReturn(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name != "panic"
	case *ast.SelectorExpr:
		switch fun.Sel.Name {
		case "Fatal", "Fatalf", "FailNow", "Exit", "Goexit", "Panic", "Panicf":
			return false
		}
	}
	return true
}

// buildParentMap records each node's syntactic parent within a file.
func buildParentMap(file *ast.File) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
