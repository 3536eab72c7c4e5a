// Package detorder protects the bit-stability contract of the kernel
// path (internal/{mat,svd,dmd}): the 1e-8/1e-12 equivalence pins
// from PR 4 and PR 9 assume every reduction runs in a deterministic
// order and nothing on the compute path consults a clock or an RNG.
// Two finding classes:
//
//   - iteration over a map feeding float accumulation or payload
//     assembly (compound float arithmetic, float element stores, or
//     append inside the loop body): Go randomizes map order, so such a
//     loop produces run-to-run different rounding. Iterate a sorted key
//     slice instead.
//   - any use of time.Now/time.Since/time.Sleep or of math/rand (v1 or
//     v2) in these packages. A use that provably never runs on the
//     per-batch path may carry an `//imrdmd:allow detorder -- reason`
//     directive instead; none of the kernel packages has one.
package detorder

import (
	"go/ast"
	"go/types"

	"imrdmd/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "detorder",
	Doc: "flags map-order-dependent numeric loops and clock/RNG use in the " +
		"kernel packages (mat, svd, dmd), protecting bit-stable reductions",
	Run: run,
}

// kernelPackages are the package-path base names the determinism
// contract covers.
var kernelPackages = map[string]bool{"mat": true, "svd": true, "dmd": true}

// forbiddenTimeFuncs are the wall-clock entry points; time.Duration
// arithmetic and constants stay legal.
var forbiddenTimeFuncs = map[string]bool{"Now": true, "Since": true, "Until": true, "Sleep": true, "Tick": true, "After": true}

func run(pass *analysis.Pass) error {
	if !kernelPackages[analysis.PkgPathBase(pass.Pkg.Path())] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				checkIdent(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkIdent(pass *analysis.Pass, id *ast.Ident) {
	obj := pass.Info.Uses[id]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	switch obj.Pkg().Path() {
	case "time":
		if forbiddenTimeFuncs[obj.Name()] {
			pass.Reportf(id.Pos(), "time.%s in kernel package %s: the kernel path must stay deterministic (no wall clock); hoist timing to the caller or add an //imrdmd:allow detorder directive with justification", obj.Name(), pass.Pkg.Name())
		}
	case "math/rand", "math/rand/v2":
		pass.Reportf(id.Pos(), "%s.%s in kernel package %s: the kernel path must stay deterministic (no RNG); thread randomness in from the caller", obj.Pkg().Path(), obj.Name(), pass.Pkg.Name())
	}
}

// checkMapRange flags `for ... := range m` over a map when the loop body
// accumulates floating-point state or assembles a payload, i.e. when the
// randomized iteration order can change the numeric result.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	t := pass.Info.Types[rng.X].Type
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if why := accumulationIn(pass, rng.Body); why != "" {
		pass.Reportf(rng.Pos(), "map iteration order feeds %s: Go randomizes map order, breaking the kernel path's bit-stable reductions; iterate sorted keys instead", why)
	}
}

// accumulationIn describes the first order-sensitive operation in body
// ("" if none): compound float/complex arithmetic, a float/complex
// element store, or an append (payload assembly).
func accumulationIn(pass *analysis.Pass, body *ast.BlockStmt) string {
	why := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			switch n.Tok.String() {
			case "+=", "-=", "*=", "/=":
				if isFloatish(pass, n.Lhs[0]) {
					why = "float accumulation"
				}
			case "=", ":=":
				for _, lhs := range n.Lhs {
					switch lhs.(type) {
					case *ast.IndexExpr, *ast.SelectorExpr:
						if isFloatish(pass, lhs) {
							why = "a float element store"
						}
					}
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" {
				if _, ok := pass.Info.Uses[id].(*types.Builtin); ok {
					why = "payload assembly (append)"
				}
			}
		}
		return true
	})
	return why
}

func isFloatish(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.Info.Types[e].Type
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}
