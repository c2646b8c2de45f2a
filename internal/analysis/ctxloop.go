package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// fanOutPackages are the layers ctxloop patrols: the worker pool, the
// simulation runner that fans runs across it, the fleet engine that
// shards populations over the pool, the service layer whose accept
// loop and session reader/processor pairs spawn goroutines per
// connection, the resilience layer — the fault injector and the
// self-healing client, whose per-connection reader goroutines must join
// before an exchange returns — the scenario engine, whose loopback
// rig spawns a ServeConn goroutine per dial that the per-device join
// must collect, and the cluster control plane (plus its admin CLI),
// whose route-table pushes fan out a goroutine per member that the
// controller's WaitGroup must collect before shutdown. Stray goroutines
// here are exactly the ones that can outlive a sweep (or a drained
// server) and race its result slots. The diurnal workload engine and the
// radio models are patrolled too: both sit on the synthesis path whose
// results must fold in device-index order, so any future fan-out inside
// them is held to the same join discipline from day one.
var fanOutPackages = []string{
	"etrain/internal/parallel",
	"etrain/internal/sim",
	"etrain/internal/fleet",
	"etrain/internal/wire",
	"etrain/internal/server",
	"etrain/internal/faultnet",
	"etrain/internal/client",
	"etrain/internal/scenario",
	"etrain/internal/cluster",
	"etrain/internal/diurnal",
	"etrain/internal/radio",
	"etrain/cmd/etrain-ctl",
}

// CtxLoop checks goroutine hygiene in the fan-out layers:
//
//   - a `go func(){...}()` inside a loop must not capture the loop variable
//     through its closure — pass it as an argument (Go 1.22 gives loops
//     per-iteration variables, but the explicit-argument form is the
//     project style and keeps the dependency visible);
//   - every goroutine must have a join or cancellation path: a
//     WaitGroup.Done / Limit.Release call, a channel operation (a range
//     over a channel included) or select, or a context reference. A
//     fire-and-forget goroutine can outlive the sweep that spawned it and
//     race the next one's result slots.
var CtxLoop = &Analyzer{
	Name: "ctxloop",
	Doc: "flag goroutines in internal/parallel and internal/sim that " +
		"capture loop variables or have no join/cancellation path",
	Exempt: func(pkgPath string) bool {
		return !pathIsAny(pkgPath, fanOutPackages...)
	},
	Run: runCtxLoop,
}

// joinMethods are method names that tie a goroutine back to its pool.
var joinMethods = map[string]bool{
	"Done": true, "Release": true, "Signal": true, "Broadcast": true,
}

func runCtxLoop(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			checkGoStmts(pass, fn.Body, nil)
			return true
		})
	}
	return nil
}

// checkGoStmts walks a statement tree tracking the set of loop variables in
// scope, and checks every `go` statement it finds.
func checkGoStmts(pass *Pass, n ast.Node, loopVars []types.Object) {
	switch stmt := n.(type) {
	case *ast.ForStmt:
		vars := loopVars
		if init, ok := stmt.Init.(*ast.AssignStmt); ok && init.Tok == token.DEFINE {
			for _, lhs := range init.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					if obj := pass.TypesInfo.Defs[id]; obj != nil {
						vars = append(vars, obj)
					}
				}
			}
		}
		checkGoStmts(pass, stmt.Body, vars)
		return
	case *ast.RangeStmt:
		vars := loopVars
		for _, e := range []ast.Expr{stmt.Key, stmt.Value} {
			if id, ok := e.(*ast.Ident); ok {
				if obj := pass.TypesInfo.Defs[id]; obj != nil {
					vars = append(vars, obj)
				}
			}
		}
		checkGoStmts(pass, stmt.Body, vars)
		return
	case *ast.GoStmt:
		checkGoStmt(pass, stmt, loopVars)
		// Still descend: the spawned function may itself contain loops
		// and nested go statements.
		if lit, ok := stmt.Call.Fun.(*ast.FuncLit); ok {
			checkGoStmts(pass, lit.Body, nil)
		}
		return
	}
	// Generic descent over any other node's children.
	children(n, func(c ast.Node) {
		checkGoStmts(pass, c, loopVars)
	})
}

// children invokes visit on the immediate children of n.
func children(n ast.Node, visit func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			visit(c)
		}
		return false
	})
}

func checkGoStmt(pass *Pass, stmt *ast.GoStmt, loopVars []types.Object) {
	lit, ok := stmt.Call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	// Loop-variable capture: an identifier inside the closure body that
	// resolves to an enclosing loop's variable. Variables passed as call
	// arguments re-enter the literal as parameters, which define fresh
	// objects and therefore do not trigger.
	seen := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil || seen[obj] {
			return true
		}
		for _, lv := range loopVars {
			if obj == lv {
				seen[obj] = true
				pass.Reportf(id.Pos(),
					"goroutine closure captures loop variable %s; pass it as an argument (go func(%s ...){...}(%s))",
					id.Name, id.Name, id.Name)
			}
		}
		return true
	})
	if !hasJoinOrCancel(pass, lit) {
		pass.Reportf(stmt.Pos(),
			"goroutine has no join or cancellation path; tie it to the pool (WaitGroup.Done / Limit.Release), a channel, or a context")
	}
}

// hasJoinOrCancel reports whether the goroutine body references any join or
// cancellation mechanism.
func hasJoinOrCancel(pass *Pass, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch v := n.(type) {
		case *ast.SelectStmt, *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			// Ranging over a channel receives until it closes.
			if t := pass.TypesInfo.TypeOf(v.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.CallExpr:
			if sel, ok := v.Fun.(*ast.SelectorExpr); ok && joinMethods[sel.Sel.Name] {
				found = true
			}
			// Closing a channel signals waiters: a join path.
			if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "close" {
				found = true
			}
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[v]; obj != nil && isContextType(obj.Type()) {
				found = true
			}
		}
		return !found
	})
	return found
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
