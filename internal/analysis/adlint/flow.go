package adlint

// A structured, path-insensitive obligation scan. A statement ACQUIRES an
// obligation (bodyclose: receive an *http.Response) and every path from
// there to function exit must DISCHARGE it (close the body). The engine here
// walks one function body in source order over Go's structured statements
// (if/for/switch/select), threading a three-value state:
//
//	flowIdle    before the acquisition statement
//	flowActive  acquired, not yet discharged
//	flowDone    discharged (released, escaped, or deferred)
//
// and records a leak at every return reached while flowActive. One
// refinement keeps the scan useful without full path sensitivity, error
// guards: acquisitions of the form `x, err := f()` bind an error variable; a
// branch guarded by `err != nil` is the failure path on which the resource
// never materialized, so it is scanned exempt, and a branch guarded by
// `err == nil` is the only success path, so only it inherits the obligation.
// This is the idiom-aware narrowing that lets
// `if err == nil { resp.Body.Close(); ... }` pass without annotations.
//
// Merging at join points is a max over {idle < done < active}: if any
// falling-through branch still holds the obligation, the joined state does.
// Branches that end in return/break/continue/panic do not contribute to the
// join (their leaks, if any, were recorded where they happened). Loops join
// the zero-iteration state with the body's exit state. The scan never
// claims a leak is reachable — it claims no discharge exists on some
// structural path, which for this protocol is a bug by construction. The
// terminates/fallsThrough helpers at the end are shared with lockhold.

import (
	"go/ast"
	"go/token"
	"go/types"
)

type flowState int

const (
	flowIdle flowState = iota
	flowDone
	flowActive
)

// flowMerge joins two branch states: an obligation still live on either
// side is live after the join.
func flowMerge(a, b flowState) flowState {
	if a > b {
		return a
	}
	return b
}

type guardKind int

const (
	guardNone    guardKind = iota
	guardFail              // `err != nil`: the acquisition failed on this branch
	guardSuccess           // `err == nil`: the only branch holding the resource
)

// flowOb is one acquire→discharge obligation.
type flowOb struct {
	// acquire is the top-level statement that creates the obligation,
	// matched by identity during the walk. A call nested in an if-init or a
	// function-literal argument is attributed to the statement that
	// contains it in the enclosing function's own statement tree.
	acquire ast.Stmt
	// releases reports whether node n discharges the obligation (a release
	// call or an ownership escape).
	releases func(n ast.Node) bool
	// errObj is the error variable bound by the acquisition, nil when the
	// acquisition cannot fail; guards on it classify failure/success paths.
	errObj types.Object
}

// scanObligation runs the obligation scan over one function-like body
// (a declaration's or a literal's) and returns the leaks: the position of
// every return (or fall-off-the-end) reached with the obligation still
// active.
func scanObligation(pass *Pass, body *ast.BlockStmt, ob *flowOb) []token.Pos {
	s := &flowScan{pass: pass, ob: ob}
	end := s.seq(body.List, flowIdle)
	if end == flowActive {
		s.leaks = append(s.leaks, body.Rbrace)
	}
	return s.leaks
}

type flowScan struct {
	pass  *Pass
	ob    *flowOb
	leaks []token.Pos
}

// seq walks one statement list, stopping at an unconditional terminator
// (everything after it is unreachable on this path).
func (s *flowScan) seq(stmts []ast.Stmt, st flowState) flowState {
	for _, stmt := range stmts {
		st = s.stmt(stmt, st)
		if terminates(stmt) {
			return st
		}
	}
	return st
}

// stmt threads the state through one statement.
func (s *flowScan) stmt(stmt ast.Stmt, st flowState) flowState {
	switch n := stmt.(type) {
	case *ast.BlockStmt:
		return s.seq(n.List, st)
	case *ast.LabeledStmt:
		return s.stmt(n.Stmt, st)
	case *ast.IfStmt:
		return s.ifStmt(n, st)
	case *ast.ForStmt:
		if n.Init != nil {
			st = s.stmt(n.Init, st)
		}
		body := s.seq(n.Body.List, st)
		return flowMerge(st, body)
	case *ast.RangeStmt:
		st = s.simple(n, st)
		body := s.seq(n.Body.List, st)
		return flowMerge(st, body)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return s.caseStmt(n, st)
	case *ast.DeferStmt, *ast.GoStmt:
		// A deferred discharge covers every later exit; a discharge handed
		// to a goroutine is the spawner's explicit transfer of the
		// obligation.
		return s.simple(n, st)
	case *ast.ReturnStmt:
		if st == flowActive {
			if s.ob.releases(n) {
				return flowDone
			}
			s.leaks = append(s.leaks, n.Pos())
		}
		return flowDone
	default:
		return s.simple(stmt, st)
	}
}

// simple handles a leaf statement: the acquisition itself, or a potential
// discharge.
func (s *flowScan) simple(stmt ast.Node, st flowState) flowState {
	if stmtIs(stmt, s.ob.acquire) {
		return flowActive
	}
	if st == flowActive && s.ob.releases(stmt) {
		return flowDone
	}
	return st
}

// stmtIs matches the acquisition statement by identity.
func stmtIs(n ast.Node, acquire ast.Stmt) bool {
	got, ok := n.(ast.Stmt)
	return ok && got == acquire
}

// ifStmt applies the error-guard narrowing, then the plain two-way join.
func (s *flowScan) ifStmt(n *ast.IfStmt, st flowState) flowState {
	if n.Init != nil {
		st = s.stmt(n.Init, st)
	}
	if st == flowActive && s.ob.releases(n.Cond) {
		st = flowDone
	}
	if st == flowActive {
		switch s.guard(n.Cond) {
		case guardFail:
			// Failure path: the resource never materialized there. Scan it
			// exempt; the success continuation keeps the obligation.
			s.seq(n.Body.List, flowIdle)
			if n.Else != nil {
				return s.stmt(n.Else, st)
			}
			return st
		case guardSuccess:
			bodyOut := s.seq(n.Body.List, st)
			if n.Else != nil {
				s.stmt(n.Else, flowIdle)
			}
			// The failure fall-through holds nothing; only a success body
			// that falls through still owing the discharge keeps the
			// obligation alive.
			if fallsThrough(n.Body.List) {
				return bodyOut
			}
			return flowDone
		}
	}
	thenOut := s.seq(n.Body.List, st)
	elseOut := st
	if n.Else != nil {
		elseOut = s.stmt(n.Else, st)
	}
	thenFalls := fallsThrough(n.Body.List)
	elseFalls := n.Else == nil || !stmtTerminatesAll(n.Else)
	switch {
	case thenFalls && elseFalls:
		return flowMerge(thenOut, elseOut)
	case thenFalls:
		return thenOut
	case elseFalls:
		return elseOut
	default:
		return flowDone // both branches left the function
	}
}

// caseStmt joins switch/type-switch/select clause bodies; a missing default
// keeps the entry state in the join (the statement may select no clause).
func (s *flowScan) caseStmt(n ast.Stmt, st flowState) flowState {
	var clauses []ast.Stmt
	hasDefault := false
	switch sw := n.(type) {
	case *ast.SwitchStmt:
		if sw.Init != nil {
			st = s.stmt(sw.Init, st)
		}
		if st == flowActive && sw.Tag != nil && s.ob.releases(sw.Tag) {
			st = flowDone
		}
		clauses = sw.Body.List
	case *ast.TypeSwitchStmt:
		if sw.Init != nil {
			st = s.stmt(sw.Init, st)
		}
		st = s.simple(sw.Assign, st)
		clauses = sw.Body.List
	case *ast.SelectStmt:
		clauses = sw.Body.List
	}
	out := flowIdle
	saw := false
	for _, clause := range clauses {
		var body []ast.Stmt
		switch cc := clause.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				hasDefault = true
			}
			body = cc.Body
		case *ast.CommClause:
			if cc.Comm == nil {
				hasDefault = true
			} else {
				st = s.stmt(cc.Comm, st)
			}
			body = cc.Body
		}
		clauseOut := s.seq(body, st)
		if fallsThrough(body) {
			out = flowMerge(out, clauseOut)
			saw = true
		}
	}
	if !hasDefault {
		out = flowMerge(out, st)
		saw = true
	}
	if !saw {
		return flowDone
	}
	return out
}

// guard classifies an if-condition against the obligation's error variable.
func (s *flowScan) guard(cond ast.Expr) guardKind {
	if s.ob.errObj == nil {
		return guardNone
	}
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.NEQ && bin.Op != token.EQL) {
		return guardNone
	}
	var other ast.Expr
	switch {
	case isNilIdent(s.pass.TypesInfo, bin.Y):
		other = bin.X
	case isNilIdent(s.pass.TypesInfo, bin.X):
		other = bin.Y
	default:
		return guardNone
	}
	id, ok := ast.Unparen(other).(*ast.Ident)
	if !ok || objOf(s.pass.TypesInfo, id) != s.ob.errObj {
		return guardNone
	}
	if bin.Op == token.NEQ {
		return guardFail
	}
	return guardSuccess
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	obj := objOf(info, id)
	_, isNil := obj.(*types.Nil)
	return isNil || (obj == nil && id.Name == "nil")
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

// stmtTerminatesAll reports whether an else-branch (block or chained if)
// leaves the function on every path — the only cases the if join needs.
func stmtTerminatesAll(stmt ast.Stmt) bool {
	switch n := stmt.(type) {
	case *ast.BlockStmt:
		return !fallsThrough(n.List)
	case *ast.IfStmt:
		if n.Else == nil {
			return false
		}
		return !fallsThrough(n.Body.List) && stmtTerminatesAll(n.Else)
	}
	return terminates(stmt)
}

// fallsThrough reports whether a statement list can reach its end.
func fallsThrough(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return true
	}
	return !terminates(stmts[len(stmts)-1])
}

// enclosingStmt returns the ancestor of target that is a statement directly
// in body's own statement tree — function-literal interiors are collapsed
// onto the statement that creates the literal, because that is where the
// literal's effects happen for a synchronous fan-out (and where a
// goroutine hand-off becomes the spawner's responsibility).
func enclosingStmt(body *ast.BlockStmt, target ast.Node) ast.Stmt {
	var found ast.Stmt
	var walk func(stmt ast.Stmt) bool
	contains := func(n ast.Node) bool {
		return n.Pos() <= target.Pos() && target.End() <= n.End()
	}
	walk = func(stmt ast.Stmt) bool {
		if stmt == nil || !contains(stmt) {
			return false
		}
		found = stmt
		switch n := stmt.(type) {
		case *ast.BlockStmt:
			for _, child := range n.List {
				if walk(child) {
					return true
				}
			}
		case *ast.LabeledStmt:
			walk(n.Stmt)
		case *ast.IfStmt:
			if n.Init != nil && walk(n.Init) {
				return true
			}
			if contains(n.Cond) {
				return true
			}
			if walk(n.Body) {
				return true
			}
			if n.Else != nil {
				walk(n.Else)
			}
		case *ast.ForStmt:
			if n.Init != nil && walk(n.Init) {
				return true
			}
			walk(n.Body)
		case *ast.RangeStmt:
			walk(n.Body)
		case *ast.SwitchStmt:
			if n.Init != nil && walk(n.Init) {
				return true
			}
			walk(n.Body)
		case *ast.TypeSwitchStmt:
			if n.Init != nil && walk(n.Init) {
				return true
			}
			if walk(n.Assign) {
				return true
			}
			walk(n.Body)
		case *ast.SelectStmt:
			walk(n.Body)
		case *ast.CaseClause:
			for _, child := range n.Body {
				if walk(child) {
					return true
				}
			}
		case *ast.CommClause:
			if n.Comm != nil && walk(n.Comm) {
				return true
			}
			for _, child := range n.Body {
				if walk(child) {
					return true
				}
			}
		}
		return true
	}
	for _, stmt := range body.List {
		if walk(stmt) {
			break
		}
	}
	return found
}
