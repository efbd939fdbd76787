// Package replypool enforces the acquire/release disciplines of the request
// path: every getReply() acquisition must be paired with a putReply() on
// every return path that follows it, and — since requests learned to cross
// process boundaries — every acquireCorr() registration must likewise be
// paired with a releaseCorr() on every return path.
//
// The reply-channel pool (see internal/p2p/routecache.go) is what keeps the
// steady-state client side of Get/Put/Delete allocation-free; a return path
// that forgets putReply silently degrades the pool back to one allocation
// per request, and — worse — a path that double-returns or returns a channel
// that may still receive poisons a later request with a stale answer.
//
// The correlation table (see internal/p2p/node.go) is the wire transport's
// replacement for reply channels: an entry that is registered but never
// released — and whose frame never went out — waits for a response that
// cannot come, and survives until the node dies. (lookupCorr, the lookup a
// partial response uses, reads an entry and leaves it registered: it is not
// a release, and a leaking path that calls it is told so.)
//
// The check is lexical, per function, and deliberately simple. For each
// return statement after an acquisition it walks backwards through the
// preceding statements (climbing out of nested blocks): a statement releases
// when its last release call comes after every return and every acquisition
// inside it — i.e. the fall-through path through that statement has
// released; hitting the acquisition first means this return path never
// released, and is reported. A `defer <release>(...)` after the acquisition
// covers every later return.
//
// Deliberate exceptions opt out per site with the //batonvet:ignore
// directive. Two are idiomatic in this codebase: the Stop path leaves a
// channel that may still receive to the garbage collector rather than
// poison the pool,
//
//	case <-c.done:
//		//batonvet:ignore replypool abandoned on Stop: a late answer must not reach the pool
//		return response{}, ErrStopped
//
// and the successful-send path of the wire transport hands the correlation
// entry's ownership to the remote node, whose response frame releases it:
//
//	//batonvet:ignore replypool ownership crossed the wire: the response frame releases the entry
//	return true
package replypool

import (
	"go/ast"
	"go/token"
	"go/types"

	"baton/internal/analysis"
)

// Analyzer is the replypool check.
var Analyzer = &analysis.Analyzer{
	Name: "replypool",
	Doc:  "every getReply()/acquireCorr() must be paired with putReply()/releaseCorr() on all return paths",
	Run:  run,
}

// pair is one acquire/release discipline: the two package-level function
// names and the noun the diagnostic says an unbalanced path leaks. peek, if
// set, names a lookup that reads the acquired thing and leaves it acquired:
// it is not a release, and a leaking function that calls it is told so — a
// reader who takes the lookup for a release would otherwise stare at a
// diagnostic that looks wrong.
type pair struct {
	acquire, release string
	leaks            string
	peek             string
}

// pairs lists every discipline the analyzer enforces. The check runs once
// per pair, so a function mixing both (a wire send that falls back to a
// local reply channel) has each audited independently.
var pairs = []pair{
	{acquire: "getReply", release: "putReply", leaks: "the pooled reply channel"},
	{acquire: "acquireCorr", release: "releaseCorr", leaks: "the correlation entry", peek: "lookupCorr"},
}

func run(pass *analysis.Pass) error {
	analysis.WalkFuncs(pass.Files, func(node ast.Node, body *ast.BlockStmt, _ []ast.Node) {
		for _, pr := range pairs {
			checkBody(pass, node, body, pr)
		}
	})
	return nil
}

// checkBody analyses one function body against one pair. Nested function
// literals are excluded everywhere — WalkFuncs hands them over as their own
// bodies.
func checkBody(pass *analysis.Pass, node ast.Node, body *ast.BlockStmt, pr pair) {
	firstGet := token.NoPos
	var deferPuts []token.Pos
	var returns []*ast.ReturnStmt
	hint := ""
	inspectSansLits(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isPoolCall(pass, n, pr.acquire) && (!firstGet.IsValid() || n.Pos() < firstGet) {
				firstGet = n.Pos()
			}
			if pr.peek != "" && isPoolCall(pass, n, pr.peek) {
				hint = " (" + pr.peek + " looks the entry up and leaves it acquired)"
			}
		case *ast.DeferStmt:
			if isPoolCall(pass, n.Call, pr.release) {
				deferPuts = append(deferPuts, n.Pos())
			}
		case *ast.ReturnStmt:
			returns = append(returns, n)
		}
	})
	if !firstGet.IsValid() {
		return
	}

ret:
	for _, r := range returns {
		if r.Pos() < firstGet {
			continue
		}
		for _, d := range deferPuts {
			if d < r.Pos() {
				continue ret
			}
		}
		if !backwardReleased(pass, body.List, r, pr) {
			pass.Reportf(r.Pos(),
				"return in %s leaks %s: no %s on this path after %s%s",
				analysis.FuncName(node), pr.leaks, pr.release, pr.acquire, hint)
		}
	}
}

// backwardReleased walks backwards from the return through preceding
// statements, climbing out of nested blocks, and decides whether the path
// reaching this return has released the acquisition.
func backwardReleased(pass *analysis.Pass, top []ast.Stmt, target *ast.ReturnStmt, pr pair) bool {
	path, ok := findPath(top, target)
	if !ok {
		return true // unreachable syntax shape: stay silent
	}
	for level := len(path) - 1; level >= 0; level-- {
		fr := path[level]
		for j := fr.idx - 1; j >= 0; j-- {
			put, get, ret := scanStmt(pass, fr.list[j], pr)
			if put.IsValid() && put > ret && put > get {
				return true // fall-through path through this statement released
			}
			if get.IsValid() {
				return false // hit the acquisition with no release in between
			}
		}
	}
	return true // return precedes any acquisition on this lexical path
}

// frame is one level of the block chain from the function body down to the
// target statement: the statement list and the index of the statement on the
// path.
type frame struct {
	list []ast.Stmt
	idx  int
}

// findPath locates target under the statement list, returning the chain of
// (list, index) frames from the outside in.
func findPath(list []ast.Stmt, target ast.Stmt) ([]frame, bool) {
	for i, s := range list {
		if s == target {
			return []frame{{list, i}}, true
		}
		for _, sub := range subLists(s) {
			if p, ok := findPath(sub, target); ok {
				return append([]frame{{list, i}}, p...), true
			}
		}
	}
	return nil, false
}

// subLists returns the statement lists nested directly under s. Function
// literals are not statements, so their bodies are naturally excluded.
func subLists(s ast.Stmt) [][]ast.Stmt {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return [][]ast.Stmt{s.List}
	case *ast.IfStmt:
		out := [][]ast.Stmt{s.Body.List}
		if s.Else != nil {
			out = append(out, []ast.Stmt{s.Else})
		}
		return out
	case *ast.ForStmt:
		return [][]ast.Stmt{s.Body.List}
	case *ast.RangeStmt:
		return [][]ast.Stmt{s.Body.List}
	case *ast.SwitchStmt:
		return [][]ast.Stmt{s.Body.List}
	case *ast.TypeSwitchStmt:
		return [][]ast.Stmt{s.Body.List}
	case *ast.SelectStmt:
		return [][]ast.Stmt{s.Body.List}
	case *ast.CaseClause:
		return [][]ast.Stmt{s.Body}
	case *ast.CommClause:
		return [][]ast.Stmt{s.Body}
	case *ast.LabeledStmt:
		return [][]ast.Stmt{{s.Stmt}}
	}
	return nil
}

// scanStmt reports the last release, acquire and return positions inside
// one statement (NoPos when absent), skipping nested function literals.
func scanStmt(pass *analysis.Pass, s ast.Stmt, pr pair) (put, get, ret token.Pos) {
	inspectSansLits(s, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isPoolCall(pass, n, pr.release) && n.Pos() > put {
				put = n.Pos()
			}
			if isPoolCall(pass, n, pr.acquire) && n.Pos() > get {
				get = n.Pos()
			}
		case *ast.ReturnStmt:
			if n.Pos() > ret {
				ret = n.Pos()
			}
		}
	})
	return put, get, ret
}

// inspectSansLits walks the subtree, skipping function literals.
func inspectSansLits(root ast.Node, fn func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// isPoolCall reports whether call invokes the package-level pool function of
// the given name in the package under analysis.
func isPoolCall(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	return ok && fn.Pkg() == pass.Pkg
}
