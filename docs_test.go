package nwscpu_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/doc"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

var (
	makeTargetDef = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
	makeTargetArg = regexp.MustCompile(`^[a-z][a-z0-9-]*$`)
	cmdDirRef     = regexp.MustCompile(`\bcmd/([a-z][a-z0-9_-]*)`)
	flagArg       = regexp.MustCompile(`^--?([a-z][a-z0-9-]*)`)
	usageFlag     = regexp.MustCompile(`(?m)^\s+-([a-z][a-z0-9-]*)`)
	inlineCode    = regexp.MustCompile("`([^`]+)`")
	metricFamily  = regexp.MustCompile(`metrics\.New\w+\(\s*"([a-z][a-z0-9_]*)"`)
	metricRow     = regexp.MustCompile("(?m)^\\|\\s*`([a-z][a-z0-9_]*)`\\s*\\|")
)

// TestDocsNameWhatExists is the drift gate between the operator-facing
// documents and the tree (make docs-check): every `make <target>` they show
// is a Makefile target, every cmd/<dir> they name is a directory, and every
// flag on an nwsd or nwsctl command line they show is in that binary's -h.
// Only code is read for targets and flags — fenced blocks and inline spans —
// so prose may still "make sure".
func TestDocsNameWhatExists(t *testing.T) {
	docs := []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"}
	more, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, more...)

	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTargetDef.FindAllStringSubmatch(string(makefile), -1) {
		targets[m[1]] = true
	}
	flags := map[string]map[string]bool{"nwsd": helpFlags(t, "nwsd"), "nwsctl": helpFlags(t, "nwsctl")}

	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if os.IsNotExist(err) && strings.HasPrefix(doc, ".claude/") {
			continue // the skill is an optional companion, not part of the tree
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cmdDirRef.FindAllStringSubmatch(string(text), -1) {
			if st, err := os.Stat(filepath.Join("cmd", m[1])); err != nil || !st.IsDir() {
				t.Errorf("%s names cmd/%s, which does not exist", doc, m[1])
			}
		}
		for _, line := range codeLines(string(text)) {
			words := strings.Fields(line)
			for i, w := range words {
				switch base := filepath.Base(w); {
				case w == "make":
					for _, target := range words[i+1:] {
						if strings.HasPrefix(target, "-") || strings.Contains(target, "=") {
							continue // an option or a variable assignment
						}
						if !makeTargetArg.MatchString(target) {
							break
						}
						if !targets[target] {
							t.Errorf("%s shows `make %s`; the Makefile has no such target", doc, target)
						}
					}
				case flags[base] != nil:
					for _, arg := range words[i+1:] {
						if strings.ContainsAny(arg[:1], "&|;#)") {
							break // the command line ended
						}
						if m := flagArg.FindStringSubmatch(arg); m != nil && !flags[base][m[1]] {
							t.Errorf("%s shows `%s -%s`; %s -h has no such flag", doc, base, m[1], base)
						}
					}
				}
			}
		}
	}
}

// helpFlags runs one of the repo's commands with -h and returns the flag
// names its usage lists.
func helpFlags(t *testing.T, name string) map[string]bool {
	t.Helper()
	out, _ := exec.Command("go", "run", "./cmd/"+name, "-h").CombinedOutput() // -h exits non-zero by convention
	flags := map[string]bool{}
	for _, m := range usageFlag.FindAllStringSubmatch(string(out), -1) {
		flags[m[1]] = true
	}
	if len(flags) == 0 {
		t.Fatalf("%s -h listed no flags:\n%s", name, out)
	}
	return flags
}

// codeLines returns the code a markdown document shows, one command line per
// entry: the lines of fenced blocks, with backslash continuations joined, and
// the inline `spans` of everything else.
func codeLines(md string) []string {
	var out []string
	fenced, pending := false, ""
	for _, line := range strings.Split(md, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			for _, m := range inlineCode.FindAllStringSubmatch(line, -1) {
				out = append(out, m[1])
			}
			continue
		}
		pending += line
		if strings.HasSuffix(pending, `\`) {
			pending = strings.TrimSuffix(pending, `\`) + " "
			continue
		}
		out = append(out, pending)
		pending = ""
	}
	return out
}

// TestDocsMetricsMatchCode holds docs/OBSERVABILITY.md to the metric
// registrations (make docs-check): every family a non-test file registers —
// the first argument of each metrics.New* call — has a row in the reference
// tables, and every nws_* row names a registered family, so a family deleted
// from the code cannot linger in the doc. Prose such as `nws_repair_*` is not
// a row and is exempt.
func TestDocsMetricsMatchCode(t *testing.T) {
	doc, err := os.ReadFile("docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]bool{}
	for _, m := range metricRow.FindAllStringSubmatch(string(doc), -1) {
		rows[m[1]] = true
	}
	registered := map[string]string{} // family -> registering file
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range metricFamily.FindAllSubmatch(src, -1) {
			registered[string(m[1])] = path
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(registered) == 0 {
		t.Fatal("no metrics.New* registrations found — pattern drift?")
	}
	for name, path := range registered {
		if !rows[name] {
			t.Errorf("%s registers %s, which docs/OBSERVABILITY.md has no row for", path, name)
		}
	}
	for name := range rows {
		if strings.HasPrefix(name, "nws_") && registered[name] == "" {
			t.Errorf("docs/OBSERVABILITY.md has a row for %s, which no non-test file registers", name)
		}
	}
}

// goSources is the module's non-test Go source, parsed once with comments and
// grouped by directory. The benchmark's module is part of it: benchmark/sut.go
// is a caller of internal/. Only the files go/build selects for the host are
// in it, so every package type-checks as the host's compiler sees it.
type goSources struct {
	fset *token.FileSet
	dirs map[string][]*ast.File
}

var (
	parseOnce   sync.Once
	parsedSrc   goSources
	parseSrcErr error
)

// moduleSources parses the repository's sources once per test binary.
func moduleSources(t *testing.T) goSources {
	t.Helper()
	parseOnce.Do(func() { parsedSrc, parseSrcErr = parseTree(".") })
	if parseSrcErr != nil {
		t.Fatal(parseSrcErr)
	}
	return parsedSrc
}

// parseTree parses every non-test .go file under root that go/build selects
// for the host, skipping testdata and hidden directories. Directories are
// keyed relative to root, with forward slashes.
func parseTree(root string) (goSources, error) {
	src := goSources{fset: token.NewFileSet(), dirs: map[string][]*ast.File{}}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); !ok || err != nil {
			return err
		}
		f, err := parser.ParseFile(src.fset, path, nil, parser.ParseComments)
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		dir := filepath.ToSlash(rel)
		src.dirs[dir] = append(src.dirs[dir], f)
		return err
	})
	return src, err
}

// TestDocsExportedNamesDocumented holds the Go sources to the doc-comment
// convention (make docs-check): every exported type, function and method
// in internal/ and cmd/ has a doc comment that starts with its name, so `go
// doc` prints something for each and no comment sits on the wrong name.
func TestDocsExportedNamesDocumented(t *testing.T) {
	src := moduleSources(t)
	checked := 0
	for dir, files := range src.dirs {
		if !strings.HasPrefix(dir, "internal/") && !strings.HasPrefix(dir, "cmd/") {
			continue
		}
		checked++
		// AllDecls, because without it go/doc strips the unexported
		// declarations from the shared ASTs; check skips them instead.
		pkg, err := doc.NewFromFiles(src.fset, files, dir, doc.AllDecls|doc.PreserveAST)
		if err != nil {
			t.Fatal(err)
		}
		check := func(label, name, text string, pos token.Pos) {
			if !token.IsExported(name) {
				return
			}
			if words := strings.Fields(text); len(words) == 0 || words[0] != name {
				t.Errorf("%s: %s has no doc comment starting with its name", src.fset.Position(pos), label)
			}
		}
		funcs := func(recv string, fns []*doc.Func) {
			for _, fn := range fns {
				check(recv+fn.Name, fn.Name, fn.Doc, fn.Decl.Pos())
			}
		}
		funcs("", pkg.Funcs)
		for _, typ := range pkg.Types {
			if !token.IsExported(typ.Name) {
				continue
			}
			check(typ.Name, typ.Name, typ.Doc, typ.Decl.Pos())
			funcs("", typ.Funcs)
			funcs(typ.Name+".", typ.Methods)
		}
	}
	if checked == 0 {
		t.Fatal("no Go packages found under internal/ or cmd/")
	}
}

// exportsAllowed lists the names in internal/ that stay without a non-test
// caller, one reason each. A key is a package directory, which exempts the
// whole package, or dir.Name, or dir.Type.Name for a method or a field.
var exportsAllowed = map[string]string{
	"internal/resilience.terminalError.Unwrap": "errors.Is and errors.As call it through an unnamed interface",
	"internal/resilience/chaos":                "the fault harness that other packages' tests import",
	"internal/nwsnet.calls.StoreCtx":           "the typed call for OpStore, which the server serves and docs/PROTOCOL.md specifies",
	"internal/nwsnet.calls.LookupCtx":          "the typed call for OpLookup, which the server serves and docs/PROTOCOL.md specifies",
	"internal/stats.Autocorrelation":           "the direct-sum reference that ACF is checked against",
	"internal/stats.IFFT":                      "the inverse in FFT's round-trip check",
	"internal/stats.TrimmedMean":               "the reference that OrderWindow's and the forecast bank's trimmed means are checked against",
	"internal/series.Ring.Tail":                "the seed kernel's window in forecast's golden reference",
	"internal/report.pageData.Title":           "html/template reads it in pageTemplate",
	"internal/report.htmlTable.Title":          "html/template reads it in pageTemplate",
	"internal/report.htmlTable.Header":         "html/template reads it in pageTemplate",
	"internal/report.htmlTable.Rows":           "html/template reads it in pageTemplate",
	"internal/report.pageData.Tables":          "html/template reads it in pageTemplate",
	"internal/report.pageData.Charts":          "html/template reads it in pageTemplate",
}

// TestExportsHaveCallers is the dead-code gate (make docs-check): every
// function, method, type, const and var declared at package level in
// internal/, and every field of a struct type declared there, is used by some
// non-test file of the module — benchmark/, cmd/ and examples/ included —
// unless exportsAllowed gives a reason. Uses are matched by object, as
// go/types resolves them (see findCallers), so a dead method that shares a
// live one's spelling is found; an Example function is a test and calls
// nothing here. A stale allow-list entry, one whose name is gone or now has a
// caller, fails too.
func TestExportsHaveCallers(t *testing.T) {
	src := moduleSources(t)
	objs, err := findCallers(src, "nwscpu", "internal/")
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	needed := map[string]bool{} // the allow-list keys that exempt a name
	for _, o := range objs {
		switch {
		case o.used:
		case exportsAllowed[o.key] != "":
			needed[o.key] = true
		case exportsAllowed[o.dir] != "":
			needed[o.dir] = true
		default:
			dead = append(dead, fmt.Sprintf("%s: %s has no non-test caller", o.pos, o.key))
		}
	}
	for key := range exportsAllowed {
		if !needed[key] {
			t.Errorf("exportsAllowed lists %s, which exempts nothing: its names are gone or have a non-test caller", key)
		}
	}
	sort.Strings(dead)
	for _, msg := range dead {
		t.Error(msg)
	}
}

// TestFindCallersFixture runs the gate's finder over testdata/callers, a
// module whose internal/fix package holds one dead name of each kind a
// by-spelling match misses, a library interface's methods on types never
// converted to an interface value, and one live name of each shape a
// type-aware match can miss. Exactly the six dead ones are reported.
func TestFindCallersFixture(t *testing.T) {
	src, err := parseTree("testdata/callers")
	if err != nil {
		t.Fatal(err)
	}
	objs, err := findCallers(src, "fixture", "internal/")
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for _, o := range objs {
		if !o.used {
			dead = append(dead, o.key)
		}
	}
	sort.Strings(dead)
	want := []string{
		"internal/fix.Gauge.MarshalJSON", "internal/fix.Gauge.Reset", "internal/fix.Gauge.hist",
		"internal/fix.Gauge.peak", "internal/fix.label", "internal/fix.label.String",
	}
	if fmt.Sprint(dead) != fmt.Sprint(want) {
		t.Errorf("dead = %v, want %v", dead, want)
	}
}

// callee is one object the caller gate checks.
type callee struct {
	key, dir string
	pos      token.Position
	decl     ast.Node // a use inside it is the object referring to itself
	used     bool
}

// findCallers type-checks every package in src and reports, for each
// package-level object, method and struct field declared in a directory
// under prefix, whether non-test code uses it. A directory's import path is
// module/dir, so a second module at module/benchmark resolves its imports
// to the same checked packages. An object counts as used when an identifier
// outside its own declaration resolves to it, with:
//   - generic instances mapped back to their origin, and promoted methods
//     and fields to their declaration, as go/types resolves them;
//   - a struct field used only where it is read: a composite-literal key or
//     an assignment target writes it, and a tagged field is read by the
//     encoder its tag names;
//   - a method's receiver not a use of its type;
//   - a method also used when its receiver type, or a type it is promoted
//     into, implements an interface whose method of that name the module
//     calls, or — when the module converts a value of that type to an
//     interface value (see markBoxed) — any exported interface of the
//     standard library, whose own code calls through them where the gate
//     does not look.
func findCallers(src goSources, module, prefix string) ([]*callee, error) {
	std := importer.ForCompiler(src.fset, "source", nil)
	pkgs := map[string]*types.Package{}
	var infos []*types.Info
	var objs []*callee
	byObj := map[types.Object]*callee{}
	nonUses := map[*ast.Ident]bool{} // field writes and receiver types
	boxed := map[*types.Named]bool{} // types converted to an interface value

	var check func(dir string) (*types.Package, error)
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		if dir, ok := strings.CutPrefix(importPath, module+"/"); ok && src.dirs[dir] != nil {
			return check(dir)
		}
		return std.Import(importPath)
	})
	check = func(dir string) (*types.Package, error) {
		importPath := path.Join(module, dir)
		if p := pkgs[importPath]; p != nil {
			return p, nil
		}
		info := &types.Info{
			Defs:      map[*ast.Ident]types.Object{},
			Uses:      map[*ast.Ident]types.Object{},
			Instances: map[*ast.Ident]types.Instance{},
			Types:     map[ast.Expr]types.TypeAndValue{},
		}
		p, err := (&types.Config{Importer: imp}).Check(importPath, src.fset, src.dirs[dir], info)
		if err != nil {
			return nil, err
		}
		pkgs[importPath], infos = p, append(infos, info)
		for _, f := range src.dirs[dir] {
			markNonUses(f, info, nonUses)
			markBoxed(f, info, boxed)
			if !strings.HasPrefix(dir, prefix) {
				continue
			}
			declarations(f, func(outer string, id *ast.Ident, decl ast.Node) {
				if id.Name == "_" || id.Name == "init" {
					return
				}
				if fn, ok := info.Defs[id].(*types.Func); ok {
					outer = recvName(fn)
				}
				key := dir + "." + id.Name
				if outer != "" {
					key = dir + "." + outer + "." + id.Name
				}
				c := &callee{key: key, dir: dir, pos: src.fset.Position(id.Pos()), decl: decl}
				objs, byObj[info.Defs[id]] = append(objs, c), c
			})
		}
		return p, nil
	}

	// The main module's packages first, then the benchmark module's.
	dirs := make([]string, 0, len(src.dirs))
	for dir := range src.dirs {
		dirs = append(dirs, dir)
	}
	sort.Slice(dirs, func(i, j int) bool {
		if bi, bj := strings.HasPrefix(dirs[i], "benchmark"), strings.HasPrefix(dirs[j], "benchmark"); bi != bj {
			return bj
		}
		return dirs[i] < dirs[j]
	})
	for _, dir := range dirs {
		if _, err := check(dir); err != nil {
			return nil, err
		}
	}

	called := map[*types.Interface][]*types.Func{} // interface methods called
	var named []*types.Named                       // the concrete types that may implement them
	for _, info := range infos {
		for id, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
						called[iface] = append(called[iface], fn)
					}
				}
			}
			c := byObj[origin(obj)]
			if c == nil || c.used || nonUses[id] || id.Pos() >= c.decl.Pos() && id.Pos() < c.decl.End() {
				continue
			}
			c.used = true
		}
		for _, obj := range info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 && !types.IsInterface(n) {
					named = append(named, n)
				}
			}
		}
		for _, inst := range info.Instances {
			if n, ok := inst.Type.(*types.Named); ok && !types.IsInterface(n) {
				named = append(named, n)
			}
		}
	}
	implemented := func(iface *types.Interface, fns []*types.Func, boxedOnly bool) {
		for _, n := range named {
			if boxedOnly && !boxed[n.Origin()] {
				continue
			}
			for _, typ := range []types.Type{n, types.NewPointer(n)} {
				if !types.Implements(typ, iface) {
					continue
				}
				for _, fn := range fns {
					obj, _, _ := types.LookupFieldOrMethod(typ, false, fn.Pkg(), fn.Name())
					if c := byObj[origin(obj)]; c != nil {
						c.used = true
					}
				}
			}
		}
	}
	for iface, fns := range called {
		implemented(iface, fns, false)
	}
	for _, p := range stdPackages(pkgs, module) {
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() && types.IsInterface(tn.Type()) {
				iface := tn.Type().Underlying().(*types.Interface)
				fns := make([]*types.Func, iface.NumMethods())
				for i := range fns {
					fns[i] = iface.Method(i)
				}
				implemented(iface, fns, true)
			}
		}
	}
	return objs, nil
}

// declarations calls add for every package-level function, method, type,
// const and var in f, and for every untagged named field of a struct type
// declared there, with the struct type's name as outer. decl is the node a
// use inside of which is the object referring to itself.
func declarations(f *ast.File, add func(outer string, id *ast.Ident, decl ast.Node)) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			add("", d.Name, d)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add("", s.Name, s)
					if st, ok := s.Type.(*ast.StructType); ok {
						for _, field := range st.Fields.List {
							for _, n := range field.Names {
								if field.Tag == nil {
									add(s.Name.Name, n, field)
								}
							}
						}
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						add("", n, s)
					}
				}
			}
		}
	}
}

// markNonUses records the identifiers in f that resolve to an object without
// using it: a field named as a composite-literal key or assigned to through
// a selector is written, not read — a self-append, x.f = append(x.f, v),
// included — and a method's receiver does not use its type.
func markNonUses(f *ast.File, info *types.Info, nonUses map[*ast.Ident]bool) {
	field := func(id *ast.Ident) {
		if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
			nonUses[id] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						field(id)
					}
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				field(sel.Sel)
				if len(n.Rhs) == len(n.Lhs) {
					if arg := selfAppended(n.Rhs[i], info); arg != nil && types.ExprString(arg) == types.ExprString(sel) {
						field(arg.Sel)
					}
				}
			}
		case *ast.FuncDecl:
			if n.Recv != nil {
				ast.Inspect(n.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						nonUses[id] = true
					}
					return true
				})
			}
		}
		return true
	})
}

// markBoxed records in boxed the named types (a pointer's element type
// included) of the values f converts to an interface type: explicitly, or
// implicitly where f passes, assigns, declares, returns, sends, appends or
// places a value in a composite literal whose destination is an interface.
// Only through such a value can a library call one of the type's methods.
func markBoxed(f *ast.File, info *types.Info, boxed map[*types.Named]bool) {
	boxType := func(from, to types.Type) {
		if from == nil || to == nil || !types.IsInterface(to) || types.IsInterface(from) {
			return
		}
		if p, ok := from.(*types.Pointer); ok {
			from = p.Elem()
		}
		if n, ok := from.(*types.Named); ok {
			boxed[n.Origin()] = true
		}
	}
	// boxAll converts values to their destinations in order; a lone call
	// returning several results spreads over them.
	boxAll := func(values []ast.Expr, dest func(i int) types.Type) {
		if len(values) == 1 {
			if tuple, ok := info.TypeOf(values[0]).(*types.Tuple); ok {
				for i := 0; i < tuple.Len(); i++ {
					boxType(tuple.At(i).Type(), dest(i))
				}
				return
			}
		}
		for i, v := range values {
			boxType(info.TypeOf(v), dest(i))
		}
	}
	var walk func(root ast.Node, results *types.Tuple)
	walk = func(root ast.Node, results *types.Tuple) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					walk(n.Body, info.Defs[n.Name].Type().(*types.Signature).Results())
				}
				return false
			case *ast.FuncLit:
				walk(n.Body, info.TypeOf(n).(*types.Signature).Results())
				return false
			case *ast.ReturnStmt:
				boxAll(n.Results, func(i int) types.Type { return at(results, i) })
			case *ast.AssignStmt:
				boxAll(n.Rhs, func(i int) types.Type { return info.TypeOf(n.Lhs[i]) })
			case *ast.ValueSpec:
				if n.Type != nil {
					boxAll(n.Values, func(int) types.Type { return info.TypeOf(n.Type) })
				}
			case *ast.SendStmt:
				if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
					boxType(info.TypeOf(n.Value), ch.Elem())
				}
			case *ast.CompositeLit:
				boxLiteral(n, info, boxType)
			case *ast.CallExpr:
				fun := info.Types[n.Fun]
				switch {
				case fun.IsType():
					boxAll(n.Args, func(int) types.Type { return fun.Type })
				case fun.IsBuiltin():
					if id, _ := ast.Unparen(n.Fun).(*ast.Ident); id == nil || id.Name != "append" || n.Ellipsis != token.NoPos {
						break
					}
					if s, ok := info.TypeOf(n).Underlying().(*types.Slice); ok {
						boxAll(n.Args[1:], func(int) types.Type { return s.Elem() })
					}
				default:
					if sig, ok := fun.Type.Underlying().(*types.Signature); ok {
						boxAll(n.Args, func(i int) types.Type { return param(sig, i, n.Ellipsis != token.NoPos) })
					}
				}
			}
			return true
		})
	}
	walk(f, nil)
}

// boxLiteral converts each element of lit to its destination: a struct
// field, a slice or array element, or a map key and value.
func boxLiteral(lit *ast.CompositeLit, info *types.Info, boxType func(from, to types.Type)) {
	typ := info.TypeOf(lit)
	if p, ok := typ.Underlying().(*types.Pointer); ok {
		typ = p.Elem()
	}
	for i, e := range lit.Elts {
		kv, keyed := e.(*ast.KeyValueExpr)
		value := e
		if keyed {
			value = kv.Value
		}
		switch u := typ.Underlying().(type) {
		case *types.Struct:
			if keyed {
				boxType(info.TypeOf(value), info.TypeOf(kv.Key))
			} else {
				boxType(info.TypeOf(value), u.Field(i).Type())
			}
		case *types.Slice:
			boxType(info.TypeOf(value), u.Elem())
		case *types.Array:
			boxType(info.TypeOf(value), u.Elem())
		case *types.Map:
			if keyed {
				boxType(info.TypeOf(kv.Key), u.Key())
			}
			boxType(info.TypeOf(value), u.Elem())
		}
	}
}

// param returns the type the i-th argument of a call to sig is converted
// to: a variadic call's trailing arguments go into the last parameter's
// slice, unless spread is set and the slice is passed as it is.
func param(sig *types.Signature, i int, spread bool) types.Type {
	n := sig.Params().Len()
	if sig.Variadic() && i >= n-1 {
		last := sig.Params().At(n - 1).Type()
		if spread {
			return last
		}
		return last.(*types.Slice).Elem()
	}
	return at(sig.Params(), i)
}

// at returns the type of the i-th variable of t, or nil when there is none.
func at(t *types.Tuple, i int) types.Type {
	if t == nil || i >= t.Len() {
		return nil
	}
	return t.At(i).Type()
}

// selfAppended returns the selector a call of the builtin append extends,
// as in append(x.f, v), or nil when e is not such a call.
func selfAppended(e ast.Expr, info *types.Info) *ast.SelectorExpr {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	if fn, ok := call.Fun.(*ast.Ident); !ok || info.Uses[fn] != types.Universe.Lookup("append") {
		return nil
	}
	sel, _ := call.Args[0].(*ast.SelectorExpr)
	return sel
}

// stdPackages returns every package that pkgs import, directly or not,
// outside module.
func stdPackages(pkgs map[string]*types.Package, module string) []*types.Package {
	seen := map[*types.Package]bool{}
	var out []*types.Package
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if !strings.HasPrefix(p.Path(), module+"/") {
			out = append(out, p)
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		walk(p)
	}
	return out
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

// Import implements types.Importer.
func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// origin maps an instance of a generic function, method or field back to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// recvName returns the name of a method's receiver type, without type
// arguments or pointer, and "" for a function.
func recvName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	typ := recv.Type()
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	return typ.(*types.Named).Obj().Name()
}
