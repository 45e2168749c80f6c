package lint

import (
	"go/ast"
	"go/types"
)

// Interprocedural core shared by the dataflow analyzers (draworder,
// hotalloc v2): a module-wide index of function declarations plus a
// static call-site resolver. The graph is deliberately modest —
// only statically-dispatched calls resolve (package functions and
// methods on concrete receivers); interface-method calls and func-value
// calls return an object with no declaration, which every traversal
// treats as a cut. That under-approximation is the right bias for this
// suite: the engine's sanctioned dynamic seams (protocol Node.Round,
// trace.Bus.Emit, the distrib worker factory) are exactly where a
// contract hands responsibility to runtime tests, and an analyzer that
// guessed at dynamic targets would report flows the code cannot take.

// declSite pairs a function declaration with the package it lives in, so
// traversals can report (and read directives) in the callee's file.
type declSite struct {
	pkg *Package
	fd  *ast.FuncDecl
}

// callGraph indexes every function declaration in the module by its
// types object. Built lazily, once per loaded Module.
type callGraph struct {
	decls map[*types.Func]declSite
}

// callGraph returns the module's declaration index, building it on first
// use. Analyzers run sequentially, so no locking is needed.
func (m *Module) callGraph() *callGraph {
	if m.cg != nil {
		return m.cg
	}
	cg := &callGraph{decls: make(map[*types.Func]declSite)}
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					cg.decls[fn] = declSite{pkg: pkg, fd: fd}
				}
			}
		}
	}
	m.cg = cg
	return cg
}

// staticCallee resolves a call expression to the function object it
// names: a package function, a method on a concrete receiver, or an
// interface method (which has no declaration in the graph — callers that
// need a body will find none and cut there). Func-value calls, type
// conversions, and builtins return nil.
func staticCallee(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		// Package-qualified call: otherpkg.Func(...).
		fn, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
