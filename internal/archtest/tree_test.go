package archtest

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// tree is a source tree loaded once: every file read, every Go file
// parsed.
type tree struct {
	fset  *token.FileSet
	files []*file // in lexical path order
}

type file struct {
	path    string // slash-separated, relative to the tree root
	src     []byte
	ast     *ast.File         // nil for a non-Go file
	imports map[string]string // local name → import path
}

// load walks root, skipping the directories (relative to root) named in
// skip.
func load(root string, skip ...string) (*tree, error) {
	t := &tree{fset: token.NewFileSet()}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if slices.Contains(skip, rel) {
				return filepath.SkipDir
			}
			return nil
		}
		if !d.Type().IsRegular() {
			return nil
		}
		f := &file{path: rel}
		if f.src, err = os.ReadFile(p); err != nil {
			return err
		}
		if strings.HasSuffix(rel, ".go") {
			if f.ast, err = parser.ParseFile(t.fset, rel, f.src, parser.ParseComments); err != nil {
				return err
			}
			f.imports = map[string]string{}
			for _, is := range f.ast.Imports {
				ip, _ := strconv.Unquote(is.Path.Value)
				name := path.Base(ip)
				if is.Name != nil {
					name = is.Name.Name
				}
				f.imports[name] = ip
			}
		}
		t.files = append(t.files, f)
		return nil
	})
	return t, err
}

func (f *file) isTest() bool { return strings.HasSuffix(f.path, "_test.go") }

// at names a byte offset of f as path:line.
func (f *file) at(off int) string {
	return fmt.Sprintf("%s:%d", f.path, bytes.Count(f.src[:off], []byte("\n"))+1)
}

func (t *tree) off(p token.Pos) int { return t.fset.Position(p).Offset }

// A finding is one violation, at path:line.
type finding struct{ pos, msg string }

// scope selects a rule's files. pkgs lists Go-style patterns relative to
// the tree root: "internal/txlog" is that directory's files, a trailing
// "/..." adds every directory below it ("./..." is the whole tree), a
// segment may be a path.Match glob, and a leading '-' takes a pattern's
// files back out. A pattern that selects no file is a finding: the
// rule's target has moved.
type scope struct {
	pkgs  string
	tests bool // _test.go files are in scope
	text  bool // so is every non-Go file, read as text
}

func (s scope) files(t *tree) (in []*file, miss []finding) {
	var incl, excl []string
	for _, p := range strings.Fields(s.pkgs) {
		if x, ok := strings.CutPrefix(p, "-"); ok {
			excl = append(excl, x)
		} else {
			incl = append(incl, p)
		}
	}
	hits := make([]int, len(incl))
	for _, f := range t.files {
		if (f.ast == nil && !s.text) || (f.isTest() && !s.tests) {
			continue
		}
		dir := path.Dir(f.path)
		keep := false
		for i, p := range incl {
			if inDir(p, dir) {
				hits[i]++
				keep = true
			}
		}
		if keep && !slices.ContainsFunc(excl, func(p string) bool { return inDir(p, dir) }) {
			in = append(in, f)
		}
	}
	for i, p := range incl {
		if hits[i] == 0 {
			miss = append(miss, finding{p, "no file in scope; point the rule at where its target went"})
		}
	}
	return in, miss
}

func inDir(pat, dir string) bool {
	base, rec := strings.CutSuffix(pat, "/...")
	ps := strings.Split(base, "/")
	if base == "." {
		ps = nil
	}
	ds := strings.Split(dir, "/")
	if dir == "." {
		ds = nil
	}
	if len(ds) < len(ps) || (!rec && len(ds) != len(ps)) {
		return false
	}
	for i, p := range ps {
		if ok, _ := path.Match(p, ds[i]); !ok {
			return false
		}
	}
	return true
}

// key names a top-level declaration the way rules spell it: "Scan" for a
// function or a type, "Engine.Scan" for a method.
func key(n ast.Node) string {
	switch d := n.(type) {
	case *ast.TypeSpec:
		return d.Name.Name
	case *ast.FuncDecl:
		if d.Recv == nil {
			return d.Name.Name
		}
		rt := d.Recv.List[0].Type
		if s, ok := rt.(*ast.StarExpr); ok {
			rt = s.X
		}
		switch x := rt.(type) {
		case *ast.IndexExpr:
			rt = x.X
		case *ast.IndexListExpr:
			rt = x.X
		}
		if id, ok := rt.(*ast.Ident); ok {
			return id.Name + "." + d.Name.Name
		}
	}
	return ""
}

// decls calls fn for each function and type declared at the top level of
// f.
func decls(f *file, fn func(n ast.Node)) {
	for _, d := range f.ast.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			fn(d)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				if ts, ok := s.(*ast.TypeSpec); ok {
					fn(ts)
				}
			}
		}
	}
}

// A region is the source of one declaration, or of a whole file.
type region struct {
	f        *file
	from, to int
}

// regions resolves target specs among files. "internal/store/sst.Engine.Scan"
// is that method; the part after the package directory is a path.Match
// pattern over keys, so "internal/store/sst.cursorSet.*" is every method
// of cursorSet; a "file:" prefix takes the whole file that declares the
// match. A spec that matches nothing is a finding.
func regions(t *tree, files []*file, specs []string) (rs []region, miss []finding) {
	for _, spec := range specs {
		dir, pat, whole := splitSpec(spec)
		found := false
		for _, f := range files {
			if f.ast == nil || path.Dir(f.path) != dir {
				continue
			}
			decls(f, func(n ast.Node) {
				if ok, _ := path.Match(pat, key(n)); !ok {
					return
				}
				found = true
				if whole {
					rs = append(rs, region{f, 0, len(f.src)})
				} else {
					rs = append(rs, region{f, t.off(n.Pos()), t.off(n.End())})
				}
			})
		}
		if !found {
			miss = append(miss, finding{pkgClause(t, files, dir), spec + " not found; point the rule at where it went"})
		}
	}
	return rs, miss
}

func splitSpec(spec string) (dir, pat string, whole bool) {
	spec, whole = strings.CutPrefix(spec, "file:")
	slash := strings.LastIndex(spec, "/")
	dot := slash + 1 + strings.Index(spec[slash+1:], ".")
	return spec[:dot], spec[dot+1:], whole
}

// pkgClause is where a finding about a whole package goes: the package
// clause of its first file in scope, or the directory itself.
func pkgClause(t *tree, files []*file, dir string) string {
	for _, f := range files {
		if f.ast != nil && path.Dir(f.path) == dir {
			return f.at(t.off(f.ast.Package))
		}
	}
	return dir
}

func inside(rs []region, f *file, off int) bool {
	return slices.ContainsFunc(rs, func(r region) bool { return r.f == f && off >= r.from && off < r.to })
}
