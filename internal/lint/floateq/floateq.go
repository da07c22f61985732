// Package floateq flags == and != on floating-point operands, and switch
// statements over floats, in the numeric packages where bit-identical
// determinism is a contract (internal/mat, internal/nn, internal/ad,
// internal/deepsets, and — since the planner/transformer scope extension —
// internal/pgsim's selectivity estimates, internal/settransformer's
// attention scores, and the blockio/bptree storage payloads). Exact
// comparisons are allowed in three cases that are genuinely exact:
//
//   - comparison against the constant 0 (the sparsity fast paths in
//     MatTVecAcc/OuterAcc skip exactly-zero gradients),
//   - comparison against math.Inf(±1) (IEEE infinities are exact),
//   - the NaN self-test x != x (or x == x), recognised syntactically.
//
// Everything else must go through the tolerance helpers (mat.ApproxEqual,
// mat.WithinTol), whose bodies the analyzer skips, or carry an
// explicit //lint:allow floateq -- <reason> escape hatch.
//
// The analyzer also guards the float32 precision boundary: non-constant
// float64↔float32 conversions are flagged everywhere in scope except in
// the one blessed file, nn/io.go, which persists weights at float32. So
// rounding happens exactly once, at persistence, instead of leaking ad-hoc
// conversions through the f64 training and serving code.
package floateq

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"setlearn/internal/lint/analysis"
	"setlearn/internal/lint/astq"
)

// toleranceFuncs are the approved helper functions whose bodies may
// compare floats exactly (they implement the tolerance logic itself).
var toleranceFuncs = map[string]bool{
	"ApproxEqual": true,
	"WithinTol":   true,
}

// isBlessedMixed reports whether the file may convert between float64 and
// float32: only nn/io.go, the float32 persistence boundary.
func isBlessedMixed(filename string) bool {
	return strings.HasSuffix(filepath.ToSlash(filename), "nn/io.go")
}

var Analyzer = &analysis.Analyzer{
	Name: "floateq",
	Doc: "flag ==/!=/switch on float32/float64 outside approved tolerance helpers, " +
		"and float64↔float32 conversions outside the nn/io.go persistence boundary; " +
		"exact-zero, math.Inf, and x != x NaN checks are allowed",
	Scope: []string{
		"setlearn/internal/mat",
		"setlearn/internal/nn",
		"setlearn/internal/ad",
		"setlearn/internal/deepsets",
		"setlearn/internal/shard",
		"setlearn/internal/bench",
		"setlearn/internal/pgsim",
		"setlearn/internal/settransformer",
		"setlearn/internal/blockio",
		"setlearn/internal/bptree",
	},
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		blessed := isBlessedMixed(pass.Fset.Position(f.Pos()).Filename)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Recv == nil && toleranceFuncs[fd.Name.Name] {
				continue // the helper is where exact compares live
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BinaryExpr:
					checkBinary(pass, n)
				case *ast.SwitchStmt:
					checkSwitch(pass, n)
				case *ast.CallExpr:
					if !blessed {
						checkConversion(pass, n)
					}
				}
				return true
			})
		}
	}
	return nil
}

// checkConversion flags non-constant conversions between float64 and
// float32 outside the blessed files: a stray conversion rounds (or
// silently re-widens rounded values) away from the one sanctioned
// precision boundary.
func checkConversion(pass *analysis.Pass, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	fun, ok := pass.TypesInfo.Types[ast.Unparen(call.Fun)]
	if !ok || !fun.IsType() {
		return
	}
	dst, ok := fun.Type.Underlying().(*types.Basic)
	if !ok {
		return
	}
	arg, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || arg.Value != nil { // constants convert at compile time, deterministically
		return
	}
	src, ok := arg.Type.Underlying().(*types.Basic)
	if !ok {
		return
	}
	narrowing := dst.Kind() == types.Float32 && src.Kind() == types.Float64
	widening := dst.Kind() == types.Float64 && src.Kind() == types.Float32
	if !narrowing && !widening {
		return
	}
	pass.Reportf(call.Pos(), "precision-mixing conversion %s outside the blessed boundary file; keep the f64↔f32 boundary in nn/io.go (or annotate //lint:allow floateq -- <reason>)",
		types.ExprString(call))
}

func checkBinary(pass *analysis.Pass, e *ast.BinaryExpr) {
	if e.Op != token.EQL && e.Op != token.NEQ {
		return
	}
	if !astq.IsFloat(pass.TypesInfo.Types[e.X].Type) && !astq.IsFloat(pass.TypesInfo.Types[e.Y].Type) {
		return
	}
	if isExactSentinel(pass.TypesInfo, e.X) || isExactSentinel(pass.TypesInfo, e.Y) {
		return
	}
	if types.ExprString(e.X) == types.ExprString(e.Y) {
		return // x != x is the canonical NaN test
	}
	pass.Reportf(e.OpPos, "float comparison %s %s %s is not determinism-safe; use mat.ApproxEqual/mat.WithinTol, compare against an exact sentinel, or annotate //lint:allow floateq -- <reason>",
		types.ExprString(e.X), e.Op, types.ExprString(e.Y))
}

func checkSwitch(pass *analysis.Pass, s *ast.SwitchStmt) {
	if s.Tag == nil || !astq.IsFloat(pass.TypesInfo.Types[s.Tag].Type) {
		return
	}
	pass.Reportf(s.Switch, "switch on float expression %s compares floats exactly; restructure as tolerance checks (or //lint:allow floateq -- <reason>)",
		types.ExprString(s.Tag))
}

// isExactSentinel reports whether e is a value that is exact in IEEE-754
// terms: the constant zero, or a math.Inf call.
func isExactSentinel(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if ok && tv.Value != nil {
		k := tv.Value.Kind()
		if (k == constant.Int || k == constant.Float) && constant.Sign(tv.Value) == 0 {
			return true
		}
	}
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		return astq.IsPkgFunc(info, call, "math", "Inf")
	}
	return false
}
