package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxPropagate enforces the cancellation contract (ROADMAP "Scoring
// kernel", cancellation points): every blocking entrypoint in the executor
// and server threads a context.Context down to the worker pool, and the
// only sanctioned context.Background() is inside an exported
// compatibility wrapper Foo that delegates directly to FooContext.
//
// Rules, in non-test executor/server code:
//
//  1. context.TODO() is always an error — TODO marks an unfinished
//     migration, and this codebase finished it in PR 3.
//  2. context.Background() is allowed only as an argument of a call to
//     FooContext made from inside Foo itself (the documented wrapper
//     pattern: Run → RunContext, Search → SearchContext, ...). Anywhere
//     else it severs an entrypoint from its caller's cancellation — the
//     exact bug class of the BuildVizIndex summary pass.
//  3. Passing a nil context is an error; use the non-Context wrapper or
//     context.Background() via one.
//  4. An exported function whose first parameter is a context.Context must
//     use it — a dropped ctx parameter is a silent cancellation leak.
//  5. A call to Foo is an error when FooContext (first parameter a
//     context.Context) exists in the callee's package — as a function, or
//     as a method of the same receiver — and the calling function, or a
//     function enclosing it, has a context.Context parameter. The wrapper
//     runs FooContext under context.Background(), so calling it with a ctx
//     in scope severs cancellation without a Background() in sight —
//     which is how the executor's former lazy index build slipped past
//     rule 2.
var CtxPropagate = &Analyzer{
	Name: "ctxpropagate",
	Doc:  "blocking entrypoints must thread ctx; context.Background() only inside Foo→FooContext wrappers, context.TODO() and nil ctx never, Foo never where FooContext exists and a ctx is in scope",
	AppliesTo: func(pkgPath string) bool {
		return strings.HasSuffix(pkgPath, "internal/executor") ||
			strings.HasSuffix(pkgPath, "internal/server")
	},
	Run: runCtxPropagate,
}

func runCtxPropagate(pass *Pass) error {
	funcs := indexFuncs(pass.Files)

	// contextVariants: names of declared functions/methods ending in
	// "Context", for the wrapper check.
	variants := map[string]bool{}
	for _, fd := range funcs.decls {
		if strings.HasSuffix(fd.Name.Name, "Context") {
			variants[fd.Name.Name] = true
		}
	}

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isPkgCall(pass.Info, call, "context", "TODO") {
				pass.Reportf(call.Pos(), "context.TODO() in non-test code: thread the caller's ctx (or use the Foo→FooContext wrapper pattern)")
				return true
			}
			if isPkgCall(pass.Info, call, "context", "Background") {
				if !isWrapperDelegation(pass, funcs, call, variants) {
					pass.Reportf(call.Pos(), "context.Background() severs cancellation: accept a ctx (add a ...Context variant) or call through an existing wrapper")
				}
				return true
			}
			// Rule 3: nil passed where a context.Context is expected.
			sig := signatureOf(pass.Info, call)
			if sig != nil {
				for i, arg := range call.Args {
					id, ok := arg.(*ast.Ident)
					if !ok || id.Name != "nil" {
						continue
					}
					if _, isNil := pass.Info.ObjectOf(id).(*types.Nil); !isNil {
						continue // an identifier shadowing nil, not the literal
					}
					if pi := paramAt(sig, i); pi != nil && isCtxType(pi.Type()) {
						pass.Reportf(arg.Pos(), "nil context passed: use context.Background() through a wrapper, or thread the caller's ctx")
					}
				}
			}
			return true
		})
	}

	// Rule 5: non-Context wrappers called with a ctx in scope.
	for _, fd := range funcs.decls {
		if fd.Body != nil {
			checkSeveringCalls(pass, fd.Body, hasCtxParam(pass.Info, fd.Type))
		}
	}

	// Rule 4: exported entrypoints with a leading ctx parameter must use it.
	for _, fd := range funcs.decls {
		if !fd.Name.IsExported() || fd.Body == nil || fd.Type.Params == nil || len(fd.Type.Params.List) == 0 {
			continue
		}
		first := fd.Type.Params.List[0]
		if !isCtxType(pass.Info.TypeOf(first.Type)) || len(first.Names) == 0 {
			continue
		}
		name := first.Names[0]
		if name.Name == "_" {
			pass.Reportf(name.Pos(), "exported %s discards its ctx parameter: thread it into the blocking work it guards", fd.Name.Name)
			continue
		}
		obj := pass.Info.Defs[name]
		used := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
				used = true
			}
			return !used
		})
		if !used {
			pass.Reportf(name.Pos(), "exported %s never uses its ctx parameter: thread it into the blocking work it guards", fd.Name.Name)
		}
	}
	return nil
}

// isWrapperDelegation reports whether the context.Background() call is an
// argument of a delegation call Foo → FooContext inside Foo itself.
func isWrapperDelegation(pass *Pass, funcs *funcIndex, bg *ast.CallExpr, variants map[string]bool) bool {
	fd := funcs.enclosing(bg.Pos())
	if fd == nil || strings.HasSuffix(fd.Name.Name, "Context") {
		return false
	}
	want := fd.Name.Name + "Context"
	if !variants[want] {
		return false
	}
	// The Background() call must appear as an argument of a call to the
	// Context variant.
	ok := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, okc := n.(*ast.CallExpr)
		if !okc {
			return true
		}
		callee := ""
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			callee = fun.Name
		case *ast.SelectorExpr:
			callee = fun.Sel.Name
		}
		if callee != want {
			return true
		}
		for _, arg := range call.Args {
			if arg == ast.Expr(bg) {
				ok = true
			}
		}
		return !ok
	})
	return ok
}

// checkSeveringCalls reports rule-5 calls in body; ctxInScope says whether
// the function owning body, or one enclosing it, has a ctx parameter.
func checkSeveringCalls(pass *Pass, body ast.Node, ctxInScope bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			checkSeveringCalls(pass, x.Body, ctxInScope || hasCtxParam(pass.Info, x.Type))
			return false
		case *ast.CallExpr:
			if !ctxInScope {
				return true
			}
			if fn := calleeFunc(pass.Info, x); fn != nil && !strings.HasSuffix(fn.Name(), "Context") && hasContextVariant(fn) {
				pass.Reportf(x.Pos(), "%s severs cancellation while a ctx is in scope: call %sContext with it", fn.Name(), fn.Name())
			}
		}
		return true
	})
}

func isCtxType(t types.Type) bool {
	n := derefNamed(t)
	return n != nil && n.Obj().Pkg() != nil &&
		n.Obj().Pkg().Path() == "context" && n.Obj().Name() == "Context"
}

func hasCtxParam(info *types.Info, ft *ast.FuncType) bool {
	for _, f := range ft.Params.List {
		if isCtxType(info.TypeOf(f.Type)) {
			return true
		}
	}
	return false
}

// calleeFunc resolves a call's static callee (function or method), or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	}
	if id == nil {
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// hasContextVariant reports whether fn's package declares fn.Name()+"Context"
// — a package function for a function, a method of the same receiver for a
// method — taking a context.Context first.
func hasContextVariant(fn *types.Func) bool {
	name := fn.Name() + "Context"
	var obj types.Object
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		obj, _, _ = types.LookupFieldOrMethod(recv.Type(), true, fn.Pkg(), name)
	} else if fn.Pkg() != nil {
		obj = fn.Pkg().Scope().Lookup(name)
	}
	v, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	params := v.Type().(*types.Signature).Params()
	return params.Len() > 0 && isCtxType(params.At(0).Type())
}

func signatureOf(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return nil
	}
	sig, _ := tv.Type.(*types.Signature)
	return sig
}

// paramAt returns the parameter a positional argument binds to, folding
// variadic tails.
func paramAt(sig *types.Signature, i int) *types.Var {
	n := sig.Params().Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		return sig.Params().At(n - 1)
	}
	if i < n {
		return sig.Params().At(i)
	}
	return nil
}
