package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder is the interprocedural companion to the per-function mutex
// analyzer. Working over the module call graph, it:
//
//  1. Builds a lock-ordering graph: an edge A → B means some execution
//     path acquires lock B (possibly through a chain of calls) while
//     lock A is held. A cycle in that graph is a potential deadlock —
//     two goroutines taking the locks in opposite orders will wait on
//     each other forever.
//  2. Reports lock-held calls into functions that may block on a
//     channel (send, receive, or select without default) anywhere down
//     the call chain. The mutex analyzer catches the direct form; this
//     catches the interprocedural one, which is exactly the class of
//     the two lock-held-send deadlocks fixed early in this repo.
//  3. Reports calls that re-acquire a lock the caller already holds on
//     the same receiver — a guaranteed self-deadlock, since sync.Mutex
//     is not reentrant.
//
// Locks are identified by (package, type, field) — every instance of
// the type shares the identity, which is the granularity lock-ordering
// disciplines are stated at — or by package-level variable. Mutexes in
// local variables have no cross-function identity and are skipped.
// Blind spots, by construction of the static call graph: calls through
// interfaces and function values, and code inside go statements and
// function literals (it runs outside the caller's critical section).
// Recursion is handled by under-approximating the recursive branch.
var LockOrder = &Analyzer{
	ID: idLockOrder,
	Doc: "no lock-order cycles across the module call graph; no lock-held call " +
		"chains into blocking channel ops; no re-locking a held lock on the same receiver",
	RunModule: runLockOrder,
}

func runLockOrder(m *Module) []Finding {
	a := &lockAnalysis{
		m:         m,
		summaries: map[*moduleFunc]*lockSummary{},
		visiting:  map[*moduleFunc]bool{},
		edges:     map[string]map[string]*lockEdge{},
	}
	for _, fn := range m.order {
		a.summary(m.funcs[fn])
	}
	for _, fn := range m.order {
		a.scanRegions(m.funcs[fn])
	}
	a.cycleFindings()
	return a.findings
}

type lockAnalysis struct {
	m         *Module
	summaries map[*moduleFunc]*lockSummary
	visiting  map[*moduleFunc]bool
	// edges: outer lock id → inner lock id → first witness. The witness
	// is deterministic: functions are scanned in module order, statements
	// in source order.
	edges    map[string]map[string]*lockEdge
	findings []Finding
}

// lockSummary is what a caller needs to know about a function without
// looking inside it.
type lockSummary struct {
	// acquires maps each lock id the function may take — directly or
	// through calls — to the call chain (display names, starting with
	// the function itself) reaching the acquisition.
	acquires map[string][]string
	// blocks is the call chain down to a blocking channel op the
	// function may perform, nil if none.
	blocks []string
}

type lockEdge struct {
	pos   token.Position
	chain []string // call chain to the inner acquisition; nil for a direct nested lock
}

// summary computes (and memoizes) the transitive lock facts for mf.
// On recursion the back edge contributes nothing: the analysis
// under-approximates rather than loops.
func (a *lockAnalysis) summary(mf *moduleFunc) *lockSummary {
	if s, ok := a.summaries[mf]; ok {
		return s
	}
	if a.visiting[mf] {
		return &lockSummary{acquires: map[string][]string{}}
	}
	a.visiting[mf] = true
	defer delete(a.visiting, mf)

	me := funcDisplay(mf.fn)
	s := &lockSummary{acquires: map[string][]string{}}
	walkSameFlow(mf.decl.Body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if id, _, _, ok := lockAcquire(mf.pkg, call); ok {
			if _, have := s.acquires[id]; !have {
				s.acquires[id] = []string{me}
			}
		}
	})
	if n := directBlockingOp(mf.decl.Body); n != nil {
		s.blocks = []string{me}
	}
	for _, c := range mf.calls {
		cf := a.m.declOf(c.callee)
		if cf == nil || cf == mf {
			continue
		}
		cs := a.summary(cf)
		for id, chain := range cs.acquires {
			if _, have := s.acquires[id]; !have {
				s.acquires[id] = append([]string{me}, chain...)
			}
		}
		if s.blocks == nil && cs.blocks != nil {
			s.blocks = append([]string{me}, cs.blocks...)
		}
	}
	a.summaries[mf] = s
	return s
}

// directBlockingOp returns the first channel operation in body that can
// block on the caller's own goroutine: a send, a receive, or a select
// without a default case. Operations inside go statements and function
// literals run elsewhere; comm clauses of a select with default are
// non-blocking probes (their bodies still count).
func directBlockingOp(body ast.Node) ast.Node {
	var found ast.Node
	var walk func(ast.Node)
	walk = func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			if found != nil {
				return false
			}
			switch n := n.(type) {
			case *ast.FuncLit, *ast.GoStmt:
				return false
			case *ast.SelectStmt:
				hasDefault := false
				for _, clause := range n.Body.List {
					if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
						hasDefault = true
					}
				}
				if !hasDefault {
					found = n
					return false
				}
				for _, clause := range n.Body.List {
					cc, ok := clause.(*ast.CommClause)
					if !ok {
						continue
					}
					for _, stmt := range cc.Body {
						walk(stmt)
					}
				}
				return false
			case *ast.SendStmt:
				found = n
				return false
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					found = n
					return false
				}
			}
			return true
		})
	}
	walk(body)
	return found
}

// scanRegions finds every lock-held region in mf (reusing the pairing
// shapes the mutex analyzer defines: defer-unlock-next-statement, or a
// matching unlock later in the block) and records ordering edges and
// interprocedural findings for what happens inside it.
func (a *lockAnalysis) scanRegions(mf *moduleFunc) {
	p := mf.pkg
	walkSameFlow(mf.decl.Body, func(n ast.Node) {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return
		}
		stmts := block.List
		for i, stmt := range stmts {
			es, ok := stmt.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := ast.Unparen(es.X).(*ast.CallExpr)
			if !ok {
				continue
			}
			id, owner, unlockName, ok := lockAcquire(p, call)
			if !ok {
				continue
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			holder := types.ExprString(sel.X) // "s.mu" for s.mu.Lock(), "s" for an embedded s.Lock()

			region := stmts[i+1:]
			if i+1 < len(stmts) && deferUnlockMatches(p, stmts[i+1], holder, unlockName) {
				region = stmts[i+2:]
			} else {
				for j := i + 1; j < len(stmts); j++ {
					if unlockMatches(p, stmts[j], holder, unlockName) || deferUnlockMatches(p, stmts[j], holder, unlockName) {
						region = stmts[i+1 : j]
						break
					}
					if _, isRet := stmts[j].(*ast.ReturnStmt); isRet {
						region = stmts[i+1 : j]
						break
					}
				}
			}
			a.scanHeldRegion(mf, heldLock{id: id, owner: owner, holder: holder, unlockName: unlockName}, region)
		}
	})
}

// heldLock carries the context of one held-lock region scan.
type heldLock struct {
	id         string // lock identity, e.g. "kvstore.Client.mu"
	owner      string // rendered expression owning the lock ("cl")
	holder     string // rendered lock expression ("cl.mu"), for unlock matching
	unlockName string // "Unlock" or "RUnlock"
}

// scanHeldRegion processes the statements executed while the lock is
// held. It recurses into nested statement lists itself (rather than
// blind ast.Inspect) so that the guard-clause pattern —
//
//	if cond {
//	    mu.Unlock()
//	    somethingSlow() // runs unlocked
//	    return
//	}
//
// stops the scan of that branch at the unlock instead of attributing
// the rest of the branch to the critical section.
func (a *lockAnalysis) scanHeldRegion(mf *moduleFunc, h heldLock, region []ast.Stmt) {
	p := mf.pkg
	for _, stmt := range region {
		if unlockMatches(p, stmt, h.holder, h.unlockName) {
			return
		}
		ast.Inspect(stmt, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit, *ast.GoStmt:
				return false
			case *ast.BlockStmt:
				a.scanHeldRegion(mf, h, n.List)
				return false
			case *ast.CaseClause:
				a.scanHeldRegion(mf, h, n.Body)
				return false
			case *ast.CommClause:
				a.scanHeldRegion(mf, h, n.Body)
				return false
			case *ast.CallExpr:
				a.checkHeldCall(mf, h, n)
			}
			return true
		})
	}
}

// checkHeldCall classifies one call made while h is held.
func (a *lockAnalysis) checkHeldCall(mf *moduleFunc, h heldLock, call *ast.CallExpr) {
	p := mf.pkg
	id, owner := h.id, h.owner
	// Direct nested acquisition: an ordering edge, or a double-lock
	// when it is the same lock on the same owner.
	if id2, owner2, _, ok := lockAcquire(p, call); ok {
		if id2 != id {
			a.addEdge(id, id2, p.position(call), nil)
		} else if owner2 == owner {
			a.findings = append(a.findings, p.finding(idLockOrder, call,
				"%s locks %s while %s already holds it (sync mutexes are not reentrant: guaranteed self-deadlock)",
				owner2, id2, owner))
		}
		return
	}
	cf := a.m.declOf(calleeFunc(p.Info, call))
	if cf == nil {
		return
	}
	cs := a.summary(cf)
	recv := ""
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		recv = types.ExprString(sel.X)
	}
	ids := make([]string, 0, len(cs.acquires))
	for id2 := range cs.acquires {
		ids = append(ids, id2)
	}
	sort.Strings(ids)
	for _, id2 := range ids {
		chain := cs.acquires[id2]
		if id2 != id {
			a.addEdge(id, id2, p.position(call), chain)
			continue
		}
		// Re-acquiring the held lock is only a self-deadlock if it is
		// the same instance; "same rendered receiver" is the heuristic
		// for that.
		if recv != "" && recv == owner {
			a.findings = append(a.findings, p.finding(idLockOrder, call,
				"calling %s while %s holds %s re-locks it on the same receiver (%s); sync mutexes are not reentrant",
				chainString(chain), owner, id, chainString(chain)))
		}
	}
	if cs.blocks != nil {
		a.findings = append(a.findings, p.finding(idLockOrder, call,
			"call while %s is held reaches a blocking channel op (%s); a blocked holder stalls every goroutine contending for %s",
			id, chainString(cs.blocks), id))
	}
}

func (a *lockAnalysis) addEdge(outer, inner string, pos token.Position, chain []string) {
	em := a.edges[outer]
	if em == nil {
		em = map[string]*lockEdge{}
		a.edges[outer] = em
	}
	if em[inner] == nil {
		em[inner] = &lockEdge{pos: pos, chain: chain}
	}
}

// cycleFindings runs Tarjan's SCC over the lock-ordering graph and
// reports every strongly connected component of two or more locks as a
// potential deadlock, citing each intra-component edge's witness.
func (a *lockAnalysis) cycleFindings() {
	var nodes []string
	seen := map[string]bool{}
	addNode := func(id string) {
		if !seen[id] {
			seen[id] = true
			nodes = append(nodes, id)
		}
	}
	for outer, em := range a.edges {
		addNode(outer)
		for inner := range em {
			addNode(inner)
		}
	}
	sort.Strings(nodes)

	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var comps [][]string
	next := 0
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		var succ []string
		for w := range a.edges[v] {
			succ = append(succ, w)
		}
		sort.Strings(succ)
		for _, w := range succ {
			if _, ok := index[w]; !ok {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			if len(comp) > 1 {
				sort.Strings(comp)
				comps = append(comps, comp)
			}
		}
	}
	for _, v := range nodes {
		if _, ok := index[v]; !ok {
			strongconnect(v)
		}
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i][0] < comps[j][0] })

	for _, comp := range comps {
		inComp := map[string]bool{}
		for _, id := range comp {
			inComp[id] = true
		}
		var parts []string
		var pos token.Position
		for _, outer := range comp {
			var inners []string
			for inner := range a.edges[outer] {
				if inComp[inner] {
					inners = append(inners, inner)
				}
			}
			sort.Strings(inners)
			for _, inner := range inners {
				e := a.edges[outer][inner]
				if pos.Filename == "" {
					pos = e.pos
				}
				part := fmt.Sprintf("%s → %s at %s:%d", outer, inner, e.pos.Filename, e.pos.Line)
				if e.chain != nil {
					part += " (via " + chainString(e.chain) + ")"
				}
				parts = append(parts, part)
			}
		}
		a.findings = append(a.findings, Finding{
			Check: idLockOrder,
			Pos:   pos,
			Message: fmt.Sprintf("potential deadlock: lock-order cycle among %d locks: %s; pick one acquisition order and use it everywhere",
				len(comp), strings.Join(parts, "; ")),
		})
	}
}
