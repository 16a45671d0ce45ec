package adlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

// Lockhold flags blocking calls made while a sync.Mutex or sync.RWMutex is
// held: sleeps (time.Sleep and any Sleep method, including injectable
// clocks), file and network I/O, channel operations, and select statements
// without a default. This is the bug class PR 2 fixed by hand in the client
// throttle — reserve under the lock, wait outside it.
//
// The scan is syntactic and statement-ordered within one function body:
// x.Lock() marks x held until a matching x.Unlock() statement; a deferred
// unlock keeps the lock held to the end of the function (which is exactly
// its runtime behavior). A branch that ends in a return (or another
// terminator) keeps its lock state to itself: the unlock before an early
// return says nothing about the path that did not take it, which is the
// shape the client throttle has. Nested function literals are scanned as
// separate scopes, since a closure does not inherit the creating goroutine's
// critical section at its eventual call site.
var Lockhold = &Analyzer{
	Name: "lockhold",
	Run:  runLockhold,
}

func runLockhold(pass *Pass) {
	for _, fd := range funcDecls(pass.Files) {
		scanLockScope(pass, fd.Body)
	}
}

// scanLockScope walks one function body in source order, tracking held
// locks, and recurses into nested FuncLits with a fresh (empty) lock set.
func scanLockScope(pass *Pass, body *ast.BlockStmt) {
	held := map[string]token.Pos{} // mutex expr text -> Lock() position
	var walk func(n ast.Node) bool
	// branch walks one branch's statements. Control never flows off the end
	// of a branch that terminates, so what it locked or unlocked is restored
	// for the code after it.
	branch := func(list []ast.Stmt) {
		entry := held
		if !fallsThrough(list) {
			held = maps.Clone(entry)
		}
		for _, stmt := range list {
			ast.Inspect(stmt, walk)
		}
		held = entry
	}
	walk = func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.FuncLit:
			scanLockScope(pass, node.Body)
			return false
		case *ast.BlockStmt:
			branch(node.List)
			return false
		case *ast.CaseClause:
			for _, e := range node.List {
				ast.Inspect(e, walk)
			}
			branch(node.Body)
			return false
		case *ast.DeferStmt:
			// defer mu.Unlock() keeps the lock held for the rest of the
			// function, so it does NOT clear the held set. Any other
			// deferred call runs after the body; skip its arguments' scan
			// except nested literals (handled above via Inspect recursion).
			if name, _, ok := lockCall(pass.TypesInfo, node.Call); ok && (name == "Unlock" || name == "RUnlock") {
				return false
			}
			return true
		case *ast.SendStmt:
			reportBlocked(pass, held, node.Pos(), "channel send")
			return true
		case *ast.UnaryExpr:
			if node.Op == token.ARROW {
				reportBlocked(pass, held, node.Pos(), "channel receive")
			}
			return true
		case *ast.SelectStmt:
			if !selectHasDefault(node) {
				reportBlocked(pass, held, node.Pos(), "select without default")
			}
			// The comm expressions are part of the (already reported) select
			// wait; scan only the clause bodies to avoid double counting.
			for _, clause := range node.Body.List {
				if comm, ok := clause.(*ast.CommClause); ok {
					branch(comm.Body)
				}
			}
			return false
		case *ast.CallExpr:
			if name, expr, ok := lockCall(pass.TypesInfo, node); ok {
				key := exprText(pass.Fset, expr)
				switch name {
				case "Lock", "RLock":
					held[key] = node.Pos()
				case "Unlock", "RUnlock":
					delete(held, key)
				}
				return true
			}
			if desc := blockingCall(pass.TypesInfo, node); desc != "" {
				reportBlocked(pass, held, node.Pos(), desc)
			}
			return true
		}
		return true
	}
	branch(body.List)
}

// reportBlocked emits one diagnostic per held mutex at a blocking site.
func reportBlocked(pass *Pass, held map[string]token.Pos, pos token.Pos, what string) {
	for mu := range held {
		pass.Reportf(pos,
			"%s while holding %s; release the lock first (reserve under the lock, wait outside it)", what, mu)
	}
}

// lockCall matches mu.Lock/RLock/Unlock/RUnlock where mu is a
// sync.Mutex/RWMutex (possibly behind a pointer), returning the method name
// and the mutex expression.
func lockCall(info *types.Info, call *ast.CallExpr) (string, ast.Expr, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", nil, false
	}
	name := sel.Sel.Name
	switch name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", nil, false
	}
	selection, ok := info.Selections[sel]
	if !ok {
		return "", nil, false
	}
	recv := selection.Recv()
	if namedIs(recv, "sync", "Mutex") || namedIs(recv, "sync", "RWMutex") {
		return name, sel.X, true
	}
	return "", nil, false
}

// blockingCall classifies calls that can block for macroscopic time,
// returning a short description or "".
func blockingCall(info *types.Info, call *ast.CallExpr) string {
	f := calleeOf(info, call)
	if f == nil {
		return ""
	}
	name := f.Name()
	pkg := pkgPathOf(f)
	if isMethod(f) {
		recv := recvNamed(f)
		switch {
		case name == "Sleep":
			// Any Sleep method: time-based waits behind an injectable Clock
			// block exactly like time.Sleep does in production.
			return "Sleep call (" + f.FullName() + ")"
		case name == "Wait" && pkg == "sync":
			return "sync." + recv.Obj().Name() + ".Wait"
		case pkg == "net/http" && recv != nil && recv.Obj().Name() == "Client":
			switch name {
			case "Do", "Get", "Post", "PostForm", "Head":
				return "HTTP round-trip http.Client." + name
			}
		case pkg == "os" && recv != nil && recv.Obj().Name() == "File":
			switch name {
			case "Read", "ReadAt", "Write", "WriteAt", "WriteString", "Sync", "Close":
				return "file I/O os.File." + name
			}
		case pkg == "bufio" && name == "Flush":
			return "buffered-writer flush (underlying I/O)"
		}
		return ""
	}
	switch pkg {
	case "time":
		if name == "Sleep" {
			return "time.Sleep"
		}
	case "os":
		switch name {
		case "Open", "OpenFile", "Create", "ReadFile", "WriteFile", "ReadDir",
			"Remove", "RemoveAll", "Rename", "Truncate", "Stat", "MkdirAll":
			return "file I/O os." + name
		}
	case "net":
		switch name {
		case "Dial", "DialTimeout", "Listen":
			return "network call net." + name
		}
	case "net/http":
		switch name {
		case "Get", "Post", "PostForm", "Head":
			return "HTTP round-trip http." + name
		}
	}
	return ""
}

// selectHasDefault reports whether a select statement has a default clause
// (making it non-blocking).
func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if comm, ok := clause.(*ast.CommClause); ok && comm.Comm == nil {
			return true
		}
	}
	return false
}

// terminates reports whether control cannot flow past stmt: returns,
// branch statements, and the conventional process-exit calls.
func terminates(stmt ast.Stmt) bool {
	switch n := stmt.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := n.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			return fun.Name == "panic"
		case *ast.SelectorExpr:
			name := fun.Sel.Name
			return name == "Exit" || name == "Fatal" || name == "Fatalf"
		}
	case *ast.BlockStmt:
		return !fallsThrough(n.List)
	}
	return false
}

// fallsThrough reports whether a statement list can reach its end.
func fallsThrough(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return true
	}
	return !terminates(stmts[len(stmts)-1])
}
