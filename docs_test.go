package nwscpu_test

import (
	"fmt"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
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
// is a caller of internal/.
type goSources struct {
	fset *token.FileSet
	dirs map[string][]*ast.File
}

var (
	parseOnce   sync.Once
	parsedSrc   goSources
	parseSrcErr error
)

// moduleSources parses every non-test .go file under the repository root,
// skipping testdata and hidden directories, once per test binary.
func moduleSources(t *testing.T) goSources {
	t.Helper()
	parseOnce.Do(func() {
		parsedSrc = goSources{fset: token.NewFileSet(), dirs: map[string][]*ast.File{}}
		parseSrcErr = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
				return filepath.SkipDir
			case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
				return nil
			}
			f, err := parser.ParseFile(parsedSrc.fset, path, nil, parser.ParseComments)
			dir := filepath.ToSlash(filepath.Dir(path))
			parsedSrc.dirs[dir] = append(parsedSrc.dirs[dir], f)
			return err
		})
	})
	if parseSrcErr != nil {
		t.Fatal(parseSrcErr)
	}
	return parsedSrc
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
// whole package, or dir.Name, or dir.Recv.Name for a method.
var exportsAllowed = map[string]string{
	"internal/series.Series.MarshalJSON":       "encoding/json calls it through json.Marshaler",
	"internal/series.Series.UnmarshalJSON":     "encoding/json calls it through json.Unmarshaler",
	"internal/resilience.terminalError.Unwrap": "errors.Is and errors.As call it",
	"internal/resilience/chaos":                "the fault harness that other packages' tests import",
	"internal/nwsnet.calls.StoreCtx":           "the typed call for OpStore, which the server serves and docs/PROTOCOL.md specifies",
	"internal/nwsnet.calls.LookupCtx":          "the typed call for OpLookup, which the server serves and docs/PROTOCOL.md specifies",
	"internal/stats.Autocorrelation":           "the direct-sum reference that ACF is checked against",
	"internal/stats.IFFT":                      "the inverse in FFT's round-trip check",
	"internal/series.Ring.Tail":                "the seed kernel's window in forecast's golden reference",
}

// TestExportsHaveCallers is the dead-code gate (make docs-check): every
// exported function, method, type, const and var in internal/ is referred to
// by some non-test file in the module — benchmark/, cmd/ and examples/
// included — and every unexported one by a non-test file of its own package,
// unless exportsAllowed gives a reason. A reference is an identifier with the
// declared name anywhere outside the declaration itself, so the match can
// miss a dead name that shares a live one's spelling but never reports a live
// one; an Example function is a test and calls nothing here. A stale
// allow-list entry, one whose name is gone or now has a caller, fails too.
func TestExportsHaveCallers(t *testing.T) {
	src := moduleSources(t)
	type decl struct {
		dir, key string
		name     *ast.Ident
		node     ast.Node
	}
	var decls []decl
	named := map[*ast.Ident]bool{}
	add := func(dir, recv string, name *ast.Ident, node ast.Node) {
		if name.Name == "_" || name.Name == "init" {
			return
		}
		key := dir + "." + name.Name
		if recv != "" {
			key = dir + "." + recv + "." + name.Name
		}
		decls = append(decls, decl{dir, key, name, node})
		named[name] = true
	}
	for dir, files := range src.dirs {
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					add(dir, recvName(d), d.Name, d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(dir, "", s.Name, s)
						case *ast.ValueSpec:
							for _, n := range s.Names {
								add(dir, "", n, s)
							}
						}
					}
				}
			}
		}
	}
	type use struct {
		dir string
		pos token.Pos
	}
	uses := map[string][]use{}
	for dir, files := range src.dirs {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !named[id] {
					uses[id.Name] = append(uses[id.Name], use{dir, id.Pos()})
				}
				return true
			})
		}
	}

	var dead []string
	seen := map[string]bool{}
	for _, d := range decls {
		if !strings.HasPrefix(d.dir, "internal/") {
			continue
		}
		exported := d.name.IsExported()
		used := false
		for _, u := range uses[d.name.Name] {
			if (exported || u.dir == d.dir) && (u.pos < d.node.Pos() || u.pos >= d.node.End()) {
				used = true
				break
			}
		}
		_, allowed := exportsAllowed[d.key]
		_, pkgAllowed := exportsAllowed[d.dir]
		seen[d.key] = true
		switch {
		case used && allowed:
			t.Errorf("exportsAllowed lists %s, which now has a non-test caller", d.key)
		case !used && !allowed && !pkgAllowed:
			dead = append(dead, fmt.Sprintf("%s: %s has no non-test caller", src.fset.Position(d.name.Pos()), d.key))
		}
	}
	for key := range exportsAllowed {
		if !seen[key] && src.dirs[key] == nil {
			t.Errorf("exportsAllowed lists %s, which names no declaration or package", key)
		}
	}
	sort.Strings(dead)
	for _, msg := range dead {
		t.Error(msg)
	}
}

// recvName returns the receiver's type name of a method, without type
// parameters or pointer, and "" for a function.
func recvName(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return ""
	}
	typ := fn.Recv.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
		case *ast.IndexExpr:
			typ = x.X
		case *ast.IndexListExpr:
			typ = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
