// Package cowpublish enforces the PR-6 copy-on-write publication
// contract in internal/server: a PublishedResult is immutable the moment
// it is swapped into the atomic pointer (or pushed into the history
// ring). Readers share instances with no synchronization, so any
// post-publication write is a data race that the type system cannot see.
//
// Allowed writes, in order of checking:
//
//   - writes inside a function literal passed to (*sync.Once).Do — the
//     sanctioned lazy-render path (SpectrumBody) that PR 6 introduced;
//     sync.Once provides the publication barrier.
//   - writes in a constructor (a function that builds the value with a
//     PublishedResult composite literal), but only before the value is
//     Stored: a constructor that stores and then keeps mutating is
//     exactly the bug this analyzer exists to catch.
//
// Everything else — field assignments, element stores into a result's
// slices (directly or through a one-level alias), and the same writes
// into a struct the result holds (p.View.Spectrum[i]) — is a finding.
package cowpublish

import (
	"go/ast"
	"go/token"
	"go/types"

	"imrdmd/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "cowpublish",
	Doc: "flags writes to server.PublishedResult (or its slices) outside its " +
		"constructor or sync.Once lazy-render path, and any write after the atomic Store",
	Run: run,
}

const typeName = "PublishedResult"

func run(pass *analysis.Pass) error {
	if analysis.PkgPathBase(pass.Pkg.Path()) != "server" {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// funcFacts are the per-function positions the write rules key on.
type funcFacts struct {
	constructor bool
	// firstStore is the position of the first atomic Pointer.Store (or
	// ring append via history.Store) in the function; writes after it
	// are post-publication even inside a constructor.
	firstStore token.Pos
	// onceRanges are the body extents of function literals passed to
	// (*sync.Once).Do.
	onceRanges [][2]token.Pos
	// aliases maps local slice variables one assignment away from a
	// PublishedResult field (s := p.Spectrum).
	aliases map[types.Object]bool
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	facts := gatherFacts(pass, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			target, kind := classifyWrite(pass, facts, lhs)
			if target == nil {
				continue
			}
			pos := lhs.Pos()
			if inOnce(facts, pos) {
				continue
			}
			if facts.constructor && (facts.firstStore == token.NoPos || pos < facts.firstStore) {
				continue
			}
			if facts.constructor {
				pass.Reportf(pos, "%s %s after the atomic Store: the result is published and shared with lock-free readers; build it fully before storing", kind, typeName)
			} else {
				pass.Reportf(pos, "%s %s outside its constructor: published results are immutable after the swap (PR 6 contract); assemble a new result and re-publish instead", kind, typeName)
			}
		}
		return true
	})
}

func gatherFacts(pass *analysis.Pass, fd *ast.FuncDecl) *funcFacts {
	facts := &funcFacts{firstStore: token.NoPos, aliases: make(map[types.Object]bool)}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if analysis.IsNamed(pass.Info.Types[n].Type, "server", typeName) {
				facts.constructor = true
			}
		case *ast.CallExpr:
			if isOnceDo(pass, n) {
				if lit, ok := ast.Unparen(n.Args[0]).(*ast.FuncLit); ok {
					facts.onceRanges = append(facts.onceRanges, [2]token.Pos{lit.Body.Pos(), lit.Body.End()})
				}
			}
			if isAtomicStore(pass, n) && (facts.firstStore == token.NoPos || n.Pos() < facts.firstStore) {
				facts.firstStore = n.Pos()
			}
		case *ast.AssignStmt:
			// One-level alias tracking: s := p.Spectrum.
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					if sel, ok := ast.Unparen(n.Rhs[i]).(*ast.SelectorExpr); ok && isResultField(pass, sel) {
						if obj := objOf(pass, id); obj != nil {
							facts.aliases[obj] = true
						}
					}
				}
			}
		}
		return true
	})
	return facts
}

// classifyWrite decides whether lhs writes into a PublishedResult. It
// returns a non-nil anchor node and a description, or nil.
func classifyWrite(pass *analysis.Pass, facts *funcFacts, lhs ast.Expr) (ast.Node, string) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if isResultField(pass, lhs) {
			return lhs, "field write to"
		}
	case *ast.IndexExpr:
		x := ast.Unparen(lhs.X)
		if sel, ok := x.(*ast.SelectorExpr); ok && isResultField(pass, sel) {
			return lhs, "element store into a slice of"
		}
		if id, ok := x.(*ast.Ident); ok {
			if obj := objOf(pass, id); obj != nil && facts.aliases[obj] {
				return lhs, "element store (through an alias) into a slice of"
			}
		}
	}
	return nil, ""
}

// isResultField reports whether sel selects a field of PublishedResult,
// directly or through fields of a struct the result holds (p.View.X).
func isResultField(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	for {
		if t := pass.Info.Types[sel.X].Type; t != nil && analysis.IsNamed(t, "server", typeName) {
			return true
		}
		inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		sel = inner
	}
}

func isOnceDo(pass *analysis.Pass, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	fn := analysis.CalleeFunc(pass.Info, call)
	if fn == nil || fn.Name() != "Do" || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	recv := analysis.RecvNamed(fn)
	return recv != nil && recv.Obj().Name() == "Once"
}

// isAtomicStore matches Store calls on sync/atomic values (the generic
// atomic.Pointer[T] swap and the history-ring pointer both publish).
func isAtomicStore(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(pass.Info, call)
	return fn != nil && fn.Name() == "Store" && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic"
}

func inOnce(facts *funcFacts, pos token.Pos) bool {
	for _, r := range facts.onceRanges {
		if r[0] <= pos && pos < r[1] {
			return true
		}
	}
	return false
}

func objOf(pass *analysis.Pass, id *ast.Ident) types.Object {
	if obj := pass.Info.Defs[id]; obj != nil {
		return obj
	}
	return pass.Info.Uses[id]
}
