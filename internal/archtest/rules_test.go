package archtest

import (
	"fmt"
	"go/ast"
	"go/token"
	"path"
	"regexp"
	"slices"
	"strings"
)

// A rule checks a tree and returns its violations.
type rule interface {
	check(t *tree) []finding
}

// ban refuses matches of text or code in its scope: only inside the in
// targets when there are any, never inside the notIn ones (target specs
// as regions reads them). With count > 0 the in targets must hold
// exactly that many matches.
type ban struct {
	scope
	in, notIn []string
	text      *regexp.Regexp // over identifiers, comments and literals; a non-Go file's whole text
	code      []matcher      // over every syntax node
	count     int
	msg       string
}

func (b ban) check(t *tree) []finding {
	files, out := b.scope.files(t)
	in, miss := regions(t, files, b.in)
	out = append(out, miss...)
	notIn, miss := regions(t, files, b.notIn)
	out = append(out, miss...)
	var hits []finding
	seen := map[string]bool{}
	for _, f := range files {
		for _, off := range b.matches(t, f) {
			if (len(b.in) > 0 && !inside(in, f, off)) || inside(notIn, f, off) || seen[f.at(off)] {
				continue
			}
			seen[f.at(off)] = true
			hits = append(hits, finding{f.at(off), b.msg})
		}
	}
	switch {
	case len(hits) > b.count:
		out = append(out, hits[b.count:]...)
	case len(hits) < b.count && len(in) > 0:
		out = append(out, finding{in[0].f.at(in[0].from), fmt.Sprintf("%d of %d matches: %s", len(hits), b.count, b.msg)})
	}
	return out
}

// matches returns the byte offsets in f where the ban's text or code
// matches.
func (b ban) matches(t *tree, f *file) []int {
	var offs []int
	if b.text != nil {
		match := func(off int, s string) {
			for _, m := range b.text.FindAllStringIndex(s, -1) {
				offs = append(offs, off+m[0])
			}
		}
		if f.ast == nil {
			match(0, string(f.src))
			return offs
		}
		for _, cg := range f.ast.Comments {
			for _, c := range cg.List {
				match(t.off(c.Pos()), c.Text)
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				match(t.off(n.Pos()), n.Name)
			case *ast.BasicLit:
				match(t.off(n.Pos()), n.Value)
			}
			return true
		})
	}
	if f.ast != nil && len(b.code) > 0 {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if n != nil && slices.ContainsFunc(b.code, func(m matcher) bool { return m(f, n) }) {
				offs = append(offs, t.off(n.Pos()))
			}
			return true
		})
	}
	slices.Sort(offs)
	return offs
}

// A matcher picks syntax nodes out of a file.
type matcher func(f *file, n ast.Node) bool

// sel matches pkg.Name, where pkg is whatever name the file imports path
// under and Name matches one of the path.Match patterns names.
func sel(ip string, names ...string) matcher {
	return func(f *file, n ast.Node) bool {
		s, ok := n.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		x, ok := s.X.(*ast.Ident)
		return ok && f.imports[x.Name] == ip && matchAny(names, s.Sel.Name)
	}
}

// name matches an identifier, or a selector's last name, against the
// path.Match patterns names. It is for callees and arguments: on its own
// it would match a selector and its last name both.
func name(names ...string) matcher {
	return func(f *file, n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			return matchAny(names, n.Name)
		case *ast.SelectorExpr:
			return matchAny(names, n.Sel.Name)
		}
		return false
	}
}

// method matches X.Name, Name one of names and X matching recv.
func method(recv matcher, names ...string) matcher {
	return func(f *file, n ast.Node) bool {
		s, ok := n.(*ast.SelectorExpr)
		return ok && matchAny(names, s.Sel.Name) && recv(f, s.X)
	}
}

// lit matches a composite literal whose type matches typ.
func lit(typ matcher) matcher {
	return func(f *file, n ast.Node) bool {
		c, ok := n.(*ast.CompositeLit)
		return ok && c.Type != nil && typ(f, c.Type)
	}
}

// call matches a call whose callee matches fun and whose leading
// arguments match args.
func call(fun matcher, args ...matcher) matcher {
	return func(f *file, n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		if !ok || len(c.Args) < len(args) || !fun(f, c.Fun) {
			return false
		}
		for i, a := range args {
			if !a(f, c.Args[i]) {
				return false
			}
		}
		return true
	}
}

func goStmt(f *file, n ast.Node) bool {
	_, ok := n.(*ast.GoStmt)
	return ok
}

func matchAny(pats []string, s string) bool {
	return slices.ContainsFunc(pats, func(p string) bool {
		ok, _ := path.Match(p, s)
		return ok
	})
}

// nilField finds the fields of the struct strct (a target spec) whose
// type is *typ (pkg.Name, pkg an import path) and refuses any == nil or
// != nil on them in scope: on the field under whatever name it has, on a
// variable copied from it, and on anything declared with its type.
type nilField struct {
	scope
	strct, typ string
	msg        string
}

func (r nilField) check(t *tree) []finding {
	files, out := r.scope.files(t)
	ip, tn, _ := strings.Cut(r.typ, ".")
	ptr := func(f *file, e ast.Expr) bool {
		s, ok := e.(*ast.StarExpr)
		return ok && sel(ip, tn)(f, s.X)
	}
	names := map[string]bool{}
	dir, pat, _ := splitSpec(r.strct)
	found := false
	for _, f := range files {
		if path.Dir(f.path) != dir {
			continue
		}
		decls(f, func(n ast.Node) {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || key(ts) != pat {
				return
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return
			}
			for _, fl := range st.Fields.List {
				for _, id := range fl.Names {
					if ptr(f, fl.Type) {
						names[id.Name], found = true, true
					}
				}
			}
		})
	}
	if !found {
		return append(out, finding{pkgClause(t, files, dir), "no *" + r.typ + " field in " + r.strct + "; point the rule at it"})
	}
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				if ptr(f, n.Type) {
					for _, id := range n.Names {
						names[id.Name] = true
					}
				}
			case *ast.ValueSpec:
				if n.Type != nil && ptr(f, n.Type) {
					for _, id := range n.Names {
						names[id.Name] = true
					}
				}
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if s, ok := rhs.(*ast.SelectorExpr); ok && names[s.Sel.Name] && i < len(n.Lhs) {
						if id, ok := n.Lhs[i].(*ast.Ident); ok {
							names[id.Name] = true
						}
					}
				}
			}
			return true
		})
	}
	isNil := func(e ast.Expr) bool { id, ok := e.(*ast.Ident); return ok && id.Name == "nil" }
	named := func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.Ident:
			return names[e.Name]
		case *ast.SelectorExpr:
			return names[e.Sel.Name]
		}
		return false
	}
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			b, ok := n.(*ast.BinaryExpr)
			if ok && (b.Op == token.EQL || b.Op == token.NEQ) &&
				((isNil(b.X) && named(b.Y)) || (isNil(b.Y) && named(b.X))) {
				out = append(out, finding{f.at(t.off(b.Pos())), r.msg})
			}
			return true
		})
	}
	return out
}

// declBan refuses a top-level declaration whose spelling — "type T",
// "func F" or "func T.M" — matches re, except the package-qualified names
// in allow ("internal/core.Metrics"), each of which must still be
// declared. A type alias declares nothing and is never refused.
type declBan struct {
	scope
	re    *regexp.Regexp
	allow []string
	msg   string
}

func (r declBan) check(t *tree) []finding {
	files, out := r.scope.files(t)
	seen := map[string]bool{}
	for _, f := range files {
		decls(f, func(n ast.Node) {
			kind := "func "
			if ts, ok := n.(*ast.TypeSpec); ok {
				if ts.Assign.IsValid() {
					return
				}
				kind = "type "
			}
			if !r.re.MatchString(kind + key(n)) {
				return
			}
			q := path.Dir(f.path) + "." + key(n)
			if slices.Contains(r.allow, q) {
				seen[q] = true
				return
			}
			out = append(out, finding{f.at(t.off(n.Pos())), r.msg})
		})
	}
	for _, q := range r.allow {
		if !seen[q] {
			dir, _, _ := splitSpec(q)
			out = append(out, finding{pkgClause(t, files, dir), q + " is allowed but not declared; drop it from the list"})
		}
	}
	return out
}

// maxLines refuses a file in scope longer than max lines, at its first
// line past the limit.
type maxLines struct {
	scope
	max int
	msg string
}

func (r maxLines) check(t *tree) []finding {
	files, out := r.scope.files(t)
	for _, f := range files {
		if n := strings.Count(string(f.src), "\n"); n > r.max {
			out = append(out, finding{fmt.Sprintf("%s:%d", f.path, r.max+1), fmt.Sprintf("%d lines: %s", n, r.msg)})
		}
	}
	return out
}

// rootFiles refuses a file at the tree root whose name matches glob.
type rootFiles struct {
	glob, msg string
}

func (r rootFiles) check(t *tree) []finding {
	var out []finding
	for _, f := range t.files {
		if ok, _ := path.Match(r.glob, f.path); ok {
			out = append(out, finding{f.path + ":1", r.msg})
		}
	}
	return out
}
