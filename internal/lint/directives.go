package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// Comment directives recognized by the suite. They use Go's directive
// comment form (`//tool:verb`, no space after `//`), so gofmt preserves
// them and godoc hides them.
const (
	// DirAdvisory suppresses findings: on the finding's line or the line
	// above it, or in the enclosing function's doc comment, it marks code
	// whose nondeterminism is documented as advisory-only (wall-clock
	// driver timings, transport deadlines). Suppressed findings are counted
	// and reported in misvet's summary so escapes stay visible.
	DirAdvisory = "//lint:advisory"
	// DirHotpath marks a function (doc comment) as part of the
	// zero-allocation message hot path; hotalloc analyzes only marked
	// functions.
	DirHotpath = "//congest:hotpath"
	// DirColdpath marks a statement (same line or the line above) inside a
	// hot-path function as a cold branch — error construction, buffer
	// growth — that hotalloc skips. On a function's doc comment it marks
	// the whole function as a sanctioned cold callee: hotalloc's
	// interprocedural traversal does not follow calls into it.
	DirColdpath = "//congest:coldpath"

	// DirWorker marks a function (doc comment) as running in a worker /
	// per-shard context even though no `go` statement spawns it directly
	// (the distrib ShardWorker methods, driven from a remote process);
	// draworder treats it as a traversal root.
	DirWorker = "//draworder:worker"
	// DirCoordinator marks a function (doc comment) as coordinator-side
	// by contract: draworder does not traverse into it even when a worker
	// path appears to call it.
	DirCoordinator = "//draworder:coordinator"
)

// commentIndex maps filename -> line -> comment texts starting on that
// line, for O(1) "is there a directive at/above this position" checks.
type commentIndex map[string]map[int][]string

// commentsAt returns the comment texts recorded for the file at line.
func (p *Package) commentsAt(m *Module, file string, line int) []string {
	if p.comments == nil {
		p.comments = make(commentIndex)
		for _, f := range p.Files {
			name := m.Fset.Position(f.FileStart).Filename
			byLine := make(map[int][]string)
			for _, group := range f.Comments {
				for _, c := range group.List {
					l := m.Fset.Position(c.Pos()).Line
					byLine[l] = append(byLine[l], c.Text)
				}
			}
			p.comments[name] = byLine
		}
	}
	return p.comments[file][line]
}

// markedAt reports whether a directive comment sits on pos's line or the
// line directly above it.
func (p *Package) markedAt(m *Module, pos token.Pos, directive string) bool {
	position := m.Fset.Position(pos)
	for _, line := range []int{position.Line, position.Line - 1} {
		for _, text := range p.commentsAt(m, position.Filename, line) {
			if strings.HasPrefix(text, directive) {
				return true
			}
		}
	}
	return false
}

// docHas reports whether a declaration's doc comment carries a directive.
func docHas(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, directive) {
			return true
		}
	}
	return false
}

// enclosingFunc returns the function declaration containing pos, if any.
func (p *Package) enclosingFunc(pos token.Pos) *ast.FuncDecl {
	for _, f := range p.Files {
		if pos < f.FileStart || pos > f.FileEnd {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
				return fd
			}
		}
	}
	return nil
}

// advisoryAt reports whether pos is covered by an advisory escape: a
// line-level //lint:advisory, or one in the enclosing function's doc.
func (p *Package) advisoryAt(m *Module, pos token.Pos) bool {
	if p == nil {
		return false
	}
	if p.markedAt(m, pos, DirAdvisory) {
		return true
	}
	fd := p.enclosingFunc(pos)
	return fd != nil && docHas(fd.Doc, DirAdvisory)
}
