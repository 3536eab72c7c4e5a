// Package lockio enforces the PR-5/PR-6 latency contract on the service
// package (internal/server): a tenant or registry mutex
// is never held across JSON/gob/xml marshaling, client I/O (request-body
// reads, response writes), file-system access, or network calls. Every
// one of those can stall for an unbounded time, and the tenant lock
// serializes the ingest path — a slow downloader must never be able to
// hold a stream's updates hostage (see DESIGN.md §8–§9).
//
// The check is intraprocedural over lexical Lock()…Unlock() regions
// (deferred unlocks extend the region to the end of the function), with
// a same-package call-graph expansion of depth 3 so a violation buried
// under helper functions (publish → assemble → marshal) is still
// attributed to the call made while the lock is held.
package lockio

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"

	"imrdmd/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockio",
	Doc: "flags marshaling, client I/O, file-system, and network calls made " +
		"while a sync.Mutex/RWMutex is held in internal/server",
	Run: run,
}

// scopedPackages are the package-path base names whose locks guard
// latency-sensitive registries (the tenant map).
var scopedPackages = map[string]bool{"server": true}

// expandDepth bounds the same-package call-graph walk: up to three
// levels of helpers beneath the call made in the lock region (enough to
// reach publish → assemble → render → marshal chains).
const expandDepth = 3

func run(pass *analysis.Pass) error {
	if !scopedPackages[analysis.PkgPathBase(pass.Pkg.Path())] {
		return nil
	}
	c := &checker{pass: pass, bodies: make(map[*types.Func]*ast.FuncDecl)}
	// Index same-package function bodies for the call-graph expansion.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
					c.bodies[obj] = fd
				}
			}
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					c.scanList(n.Body.List, nil)
				}
				return false // scanList descends itself
			case *ast.FuncLit:
				c.scanList(n.Body.List, nil)
				return false
			}
			return true
		})
	}
	return nil
}

type heldLock struct {
	name string // rendered receiver expression, e.g. "t.mu"
	rw   bool   // RLock region (still forbids I/O: it blocks writers)
}

type checker struct {
	pass   *analysis.Pass
	bodies map[*types.Func]*ast.FuncDecl
}

// scanList walks one statement list in execution order, tracking which
// locks are held. Nested lists (if/for/switch bodies) inherit the held
// set; a region that is still open when the list ends simply ends with
// it (a Lock whose Unlock lives in an outer list is out of model —
// lexical regions cover every pattern the service packages use).
func (c *checker) scanList(list []ast.Stmt, held []heldLock) {
	held = append([]heldLock(nil), held...)
	for _, s := range list {
		if lk, kind := c.lockStmt(s); kind != 0 {
			switch kind {
			case opLock:
				held = append(held, lk)
			case opUnlock:
				for i := len(held) - 1; i >= 0; i-- {
					if held[i].name == lk.name {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
			case opDeferUnlock:
				// Region extends to function end; nothing to pop.
			}
			continue
		}
		if len(held) > 0 {
			c.checkStmt(s, held)
			continue
		}
		// Not under a lock: descend looking for inner regions.
		for _, child := range childStmtLists(s) {
			c.scanList(child, held)
		}
	}
}

type lockOp int

const (
	opLock lockOp = iota + 1
	opUnlock
	opDeferUnlock
)

// lockStmt classifies `x.Lock()` / `x.Unlock()` / `defer x.Unlock()`
// statements on sync.Mutex / sync.RWMutex values.
func (c *checker) lockStmt(s ast.Stmt) (heldLock, lockOp) {
	var call *ast.CallExpr
	deferred := false
	switch s := s.(type) {
	case *ast.ExprStmt:
		call, _ = ast.Unparen(s.X).(*ast.CallExpr)
	case *ast.DeferStmt:
		call = s.Call
		deferred = true
	}
	if call == nil {
		return heldLock{}, 0
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return heldLock{}, 0
	}
	fn := analysis.CalleeFunc(c.pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return heldLock{}, 0
	}
	recv := analysis.RecvNamed(fn)
	if recv == nil || (recv.Obj().Name() != "Mutex" && recv.Obj().Name() != "RWMutex") {
		return heldLock{}, 0
	}
	lk := heldLock{name: c.exprString(sel.X), rw: strings.HasPrefix(fn.Name(), "R")}
	switch fn.Name() {
	case "Lock", "RLock":
		if deferred {
			return heldLock{}, 0
		}
		return lk, opLock
	case "Unlock", "RUnlock":
		if deferred {
			return lk, opDeferUnlock
		}
		return lk, opUnlock
	}
	return heldLock{}, 0
}

// checkStmt inspects one statement executed under held locks for
// forbidden calls, expanding same-package callees up to expandDepth.
// Function literals are skipped: a closure built under the lock runs
// when it is invoked, which the region model does not track.
func (c *checker) checkStmt(s ast.Stmt, held []heldLock) {
	lock := held[len(held)-1].name
	ast.Inspect(s, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(c.pass.Info, call)
		if fn == nil {
			return true
		}
		if why := forbidden(fn); why != "" {
			c.pass.Reportf(call.Pos(), "%s while %s is held: %s", callName(fn), lock, why)
			return true
		}
		if chain, bad, why := c.expand(fn, expandDepth, nil); bad {
			c.pass.Reportf(call.Pos(), "%s while %s is held reaches %s: %s", fn.Name(), lock, strings.Join(chain, " → "), why)
		}
		return true
	})
}

// expand walks same-package callees (depth-limited, cycle-safe) looking
// for a forbidden call; it returns the call chain down to the sink.
func (c *checker) expand(fn *types.Func, depth int, seen []*types.Func) ([]string, bool, string) {
	if depth <= 0 {
		return nil, false, ""
	}
	for _, s := range seen {
		if s == fn {
			return nil, false, ""
		}
	}
	decl, ok := c.bodies[fn]
	if !ok {
		return nil, false, ""
	}
	seen = append(seen, fn)
	var chain []string
	var why string
	bad := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if bad {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := analysis.CalleeFunc(c.pass.Info, call)
		if callee == nil {
			return true
		}
		if w := forbidden(callee); w != "" {
			chain, bad, why = []string{callName(callee)}, true, w
			return false
		}
		if sub, b, w := c.expand(callee, depth-1, seen); b {
			chain, bad, why = append([]string{callee.Name()}, sub...), true, w
			return false
		}
		return true
	})
	return chain, bad, why
}

// osAllowed are the os-package entry points that neither block nor touch
// the file system.
var osAllowed = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true, "Getpid": true,
	"Getppid": true, "Getuid": true, "Geteuid": true, "Hostname": true,
	"TempDir": true, "IsNotExist": true, "IsExist": true, "IsPermission": true,
	"IsTimeout": true, "Expand": true, "ExpandEnv": true,
}

// ioForbidden are the io-package helpers that drive a Reader/Writer —
// unbounded when the endpoint is a client connection or disk.
var ioForbidden = map[string]bool{
	"ReadAll": true, "Copy": true, "CopyN": true, "CopyBuffer": true,
	"ReadFull": true, "ReadAtLeast": true, "WriteString": true, "Pipe": true,
}

// netAllowed are the net/http identifiers that are pure accessors.
var netAllowed = map[string]bool{"Context": true, "StatusText": true, "CanonicalHeaderKey": true}

// forbidden classifies a callee as a marshal/I-O sink; "" means clean.
func forbidden(fn *types.Func) string {
	path := analysis.FuncPkgPath(fn)
	name := fn.Name()
	switch path {
	case "encoding/json", "encoding/gob", "encoding/xml":
		return "marshaling under a lock rides the ingest latency tail; assemble data under the lock, render it outside (or lazily via sync.Once)"
	case "io":
		if ioForbidden[name] {
			return "I/O under a lock lets a slow reader/writer stall every other holder; move the transfer outside the critical section"
		}
		if recv := analysis.RecvNamed(fn); recv != nil {
			// Methods on io interfaces (Reader, Writer, Closer, …): the
			// dynamic endpoint is unknown, assume it can block.
			return "I/O through an io interface under a lock can block on a client or disk; buffer outside the critical section"
		}
	case "os":
		if !osAllowed[name] {
			return "file-system access under a lock couples lock hold time to disk latency; stage to memory and write outside"
		}
	}
	if path == "net" || strings.HasPrefix(path, "net/") {
		if path == "net/url" || path == "net/netip" || path == "net/mail" || netAllowed[name] {
			return ""
		}
		return "network/HTTP activity under a lock couples hold time to the peer; never hold a registry or tenant lock across client I/O"
	}
	return ""
}

func callName(fn *types.Func) string {
	if recv := analysis.RecvNamed(fn); recv != nil {
		return recv.Obj().Name() + "." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// childStmtLists returns the nested statement lists of one statement so
// the scanner can hunt for lock regions inside control flow.
func childStmtLists(s ast.Stmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	switch s := s.(type) {
	case *ast.BlockStmt:
		out = append(out, s.List)
	case *ast.IfStmt:
		out = append(out, s.Body.List)
		if s.Else != nil {
			out = append(out, []ast.Stmt{s.Else})
		}
	case *ast.ForStmt:
		out = append(out, s.Body.List)
	case *ast.RangeStmt:
		out = append(out, s.Body.List)
	case *ast.SwitchStmt:
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.LabeledStmt:
		out = append(out, []ast.Stmt{s.Stmt})
	}
	return out
}

func (c *checker) exprString(e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, token.NewFileSet(), e); err != nil {
		return fmt.Sprintf("%T", e)
	}
	return buf.String()
}
