package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MsgOwnership enforces the one rule of the message ownership contract
// documented on cosim.Transport (and in docs/PROTOCOL.md) that the
// compiler cannot: Send hands a message's payload slices (Words, Raw) to
// the transport stack, and an in-process link gives the receiver those
// very backing arrays, so writing a payload field, or an element of one,
// after the message was sent is flagged. Payloads are otherwise owned by
// value: a received message may be kept, modified or dropped.
//
// The analysis is intraprocedural and path-sensitive across if/else,
// switch, and select arms (states merge at join points): a write is
// flagged only when the message was sent on every path reaching it.
var MsgOwnership = &Analyzer{
	Name: "msgownership",
	Doc:  "flag Msg payload writes after the message was sent",
	Run:  runMsgOwnership,
}

// mstate is a bitset of the states a tracked message may be in across
// the paths explored so far.
type mstate uint8

const (
	sUnsent mstate = 1 << iota // still the caller's to write
	sSent                      // handed to a transport Send
)

// cell is the shared state of one message value; aliased variables
// (m2 := m) point at the same cell.
type cell struct{ state mstate }

// ownEnv maps variables to their state cells. A Msg-typed variable with
// no cell yet is unsent.
type ownEnv struct {
	vars map[*types.Var]*cell
}

func newOwnEnv() *ownEnv { return &ownEnv{vars: make(map[*types.Var]*cell)} }

// clone copies the environment, preserving aliasing between variables.
func (e *ownEnv) clone() *ownEnv {
	n := newOwnEnv()
	remap := make(map[*cell]*cell, len(e.vars))
	for v, c := range e.vars {
		nc, ok := remap[c]
		if !ok {
			cc := *c
			nc = &cc
			remap[c] = nc
		}
		n.vars[v] = nc
	}
	return n
}

// merge folds other into e by the product construction: each variable's
// merged cell carries the union of its per-path states, and two
// variables share a merged cell iff they were aliased by the SAME pair
// of cells on both paths. A variable tracked on one path only was unsent
// on the other.
func (e *ownEnv) merge(other *ownEnv) {
	type pair struct{ a, b *cell }
	memo := make(map[pair]*cell)
	unsent := &cell{state: sUnsent}
	join := func(c, oc *cell) *cell {
		if c == oc {
			return c
		}
		key := pair{c, oc}
		mc, ok := memo[key]
		if !ok {
			mc = &cell{state: c.state | oc.state}
			memo[key] = mc
		}
		return mc
	}
	out := make(map[*types.Var]*cell, len(e.vars))
	for v, c := range e.vars {
		oc, ok := other.vars[v]
		if !ok {
			oc = unsent
		}
		out[v] = join(c, oc)
	}
	for v, oc := range other.vars {
		if _, ok := e.vars[v]; !ok {
			out[v] = join(unsent, oc)
		}
	}
	e.vars = out
}

// term describes how a statement list left its block.
type term int

const (
	tFallthrough term = iota // ran off the end
	tTerminated              // return / panic / break / continue / goto
)

type ownAnalysis struct {
	pass *Pass
}

func runMsgOwnership(pass *Pass) error {
	if !pkgMentionsMsg(pass.Pkg) {
		return nil
	}
	a := &ownAnalysis{pass: pass}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				a.stmts(newOwnEnv(), fn.Body.List)
			}
		}
	}
	return nil
}

// pkgMentionsMsg reports whether the package defines or imports a
// package named cosim (the only way cosim.Msg can appear).
func pkgMentionsMsg(pkg *types.Package) bool {
	if pkg.Name() == "cosim" {
		return true
	}
	for _, imp := range pkg.Imports() {
		if imp.Name() == "cosim" {
			return true
		}
	}
	return false
}

// msgVar resolves an expression to a Msg-typed variable, if it is a plain
// identifier (possibly parenthesized or &x).
func (a *ownAnalysis) msgVar(e ast.Expr) *types.Var {
	e = unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = unparen(u.X)
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	obj, ok := a.pass.Info.Uses[id].(*types.Var)
	if !ok {
		if obj, ok = a.pass.Info.Defs[id].(*types.Var); !ok {
			return nil
		}
	}
	if !typeIsMsg(obj.Type()) {
		return nil
	}
	return obj
}

// lookup returns v's cell, creating an unsent one on first use.
func (env *ownEnv) lookup(v *types.Var) *cell {
	c := env.vars[v]
	if c == nil {
		c = &cell{state: sUnsent}
		env.vars[v] = c
	}
	return c
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// stmts processes a statement list, returning how it terminated.
func (a *ownAnalysis) stmts(env *ownEnv, list []ast.Stmt) term {
	for _, s := range list {
		if t := a.stmt(env, s); t == tTerminated {
			return tTerminated
		}
	}
	return tFallthrough
}

func (a *ownAnalysis) stmt(env *ownEnv, s ast.Stmt) term {
	switch s := s.(type) {
	case *ast.AssignStmt:
		a.assign(env, s)
	case *ast.DeclStmt:
		a.expr(env, s)
	case *ast.ExprStmt:
		a.expr(env, s.X)
	case *ast.ReturnStmt:
		return tTerminated
	case *ast.GoStmt:
		a.expr(env, s.Call)
	case *ast.SendStmt:
		a.expr(env, s.Value)
	case *ast.IncDecStmt:
		a.expr(env, s.X)
		a.checkWrite(env, s.X)
	case *ast.IfStmt:
		return a.ifStmt(env, s)
	case *ast.SwitchStmt:
		if s.Init != nil {
			a.stmt(env, s.Init)
		}
		a.expr(env, s.Tag)
		return a.mergeClauses(env, s.Body.List, true)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			a.stmt(env, s.Init)
		}
		a.stmt(env, s.Assign)
		return a.mergeClauses(env, s.Body.List, true)
	case *ast.SelectStmt:
		return a.mergeClauses(env, s.Body.List, false)
	case *ast.ForStmt:
		a.forStmt(env, s)
	case *ast.RangeStmt:
		a.rangeStmt(env, s)
	case *ast.BlockStmt:
		return a.stmts(env, s.List)
	case *ast.LabeledStmt:
		return a.stmt(env, s.Stmt)
	case *ast.BranchStmt:
		// break/continue/goto: drop the path (mildly under-reports at
		// loop joins, never over-reports).
		return tTerminated
	}
	// A deferred Send runs at return, after every write in the body, so
	// DeferStmt is skipped.
	return tFallthrough
}

// assign scans the right-hand sides for sends, checks the left-hand
// sides for payload writes, then rebinds Msg-typed variables: copying a
// tracked variable aliases its cell, any other value is a fresh unsent
// message.
func (a *ownAnalysis) assign(env *ownEnv, s *ast.AssignStmt) {
	for _, rhs := range s.Rhs {
		a.expr(env, rhs)
	}
	for i, lhs := range s.Lhs {
		a.checkWrite(env, lhs)
		v := a.msgVar(lhs)
		if v == nil {
			continue
		}
		if len(s.Rhs) == len(s.Lhs) {
			if src := a.msgVar(s.Rhs[i]); src != nil {
				env.vars[v] = env.lookup(src)
				continue
			}
		}
		env.vars[v] = &cell{state: sUnsent}
	}
}

// checkWrite reports a write to a sent message's payload field (m.Words
// = ...) or to an element of one (m.Words[i] = ...).
func (a *ownAnalysis) checkWrite(env *ownEnv, lhs ast.Expr) {
	lhs = unparen(lhs)
	for {
		ix, ok := lhs.(*ast.IndexExpr)
		if !ok {
			break
		}
		lhs = unparen(ix.X)
	}
	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Words" && sel.Sel.Name != "Raw") {
		return
	}
	if v := a.msgVar(sel.X); v != nil && env.lookup(v).state == sSent {
		a.pass.Reportf(lhs.Pos(), "payload field %s written after the message was sent (an in-process link hands the receiver these backing arrays)", sel.Sel.Name)
	}
}

// expr marks every Msg variable passed to a Send call inside n as sent.
// Function literals are not entered: their bodies run at another time.
func (a *ownAnalysis) expr(env *ownEnv, n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if sel, ok := unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Send" {
				for _, arg := range n.Args {
					if v := a.msgVar(arg); v != nil {
						env.lookup(v).state = sSent
					}
				}
			}
		}
		return true
	})
}

// ifStmt analyzes both branches on cloned environments and merges the
// survivors.
func (a *ownAnalysis) ifStmt(env *ownEnv, s *ast.IfStmt) term {
	if s.Init != nil {
		a.stmt(env, s.Init)
	}
	a.expr(env, s.Cond)
	thenEnv := env.clone()
	elseEnv := env.clone()
	tThen := a.stmts(thenEnv, s.Body.List)
	tElse := tFallthrough
	switch e := s.Else.(type) {
	case *ast.BlockStmt:
		tElse = a.stmts(elseEnv, e.List)
	case *ast.IfStmt:
		tElse = a.ifStmt(elseEnv, e)
	}
	switch {
	case tThen == tFallthrough && tElse == tFallthrough:
		*env = *thenEnv
		env.merge(elseEnv)
	case tThen == tFallthrough:
		*env = *thenEnv
	case tElse == tFallthrough:
		*env = *elseEnv
	default:
		return tTerminated
	}
	return tFallthrough
}

// mergeClauses analyzes each case/comm clause on a cloned environment
// and merges the non-terminated ones. When withoutDefaultFallsThrough
// is true (expression switches) a missing default keeps the entry
// environment alive as one more path.
func (a *ownAnalysis) mergeClauses(env *ownEnv, clauses []ast.Stmt, withoutDefaultFallsThrough bool) term {
	var survivors []*ownEnv
	hasDefault := false
	for _, cl := range clauses {
		ce := env.clone()
		var body []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			for _, x := range cl.List {
				a.expr(ce, x)
			}
			body = cl.Body
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			} else {
				a.stmt(ce, cl.Comm)
			}
			body = cl.Body
		}
		if t := a.stmts(ce, body); t == tFallthrough {
			survivors = append(survivors, ce)
		}
	}
	if withoutDefaultFallsThrough && !hasDefault {
		survivors = append(survivors, env.clone())
	}
	if len(survivors) == 0 {
		if len(clauses) == 0 {
			return tFallthrough
		}
		return tTerminated
	}
	*env = *survivors[0]
	for _, s := range survivors[1:] {
		env.merge(s)
	}
	return tFallthrough
}

// forStmt analyzes the loop body once from the entry state and merges
// the result with it, since the body may run zero times. A second pass
// is not needed: merging only widens states, so it could report nothing
// new.
func (a *ownAnalysis) forStmt(env *ownEnv, s *ast.ForStmt) {
	if s.Init != nil {
		a.stmt(env, s.Init)
	}
	a.expr(env, s.Cond)
	body := env.clone()
	if a.stmts(body, s.Body.List) == tFallthrough {
		if s.Post != nil {
			a.stmt(body, s.Post)
		}
		env.merge(body)
	}
}

// rangeStmt is forStmt for range loops; the loop variables are fresh,
// unsent messages each iteration.
func (a *ownAnalysis) rangeStmt(env *ownEnv, s *ast.RangeStmt) {
	a.expr(env, s.X)
	body := env.clone()
	if s.Tok == token.DEFINE || s.Tok == token.ASSIGN {
		for _, x := range []ast.Expr{s.Key, s.Value} {
			if v := a.msgVar(x); v != nil {
				body.vars[v] = &cell{state: sUnsent}
			}
		}
	}
	if a.stmts(body, s.Body.List) == tFallthrough {
		env.merge(body)
	}
}
