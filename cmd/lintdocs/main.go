// Command lintdocs fails when a package exports an undocumented identifier,
// ships a function that nothing calls, or the prose names a test that does
// not exist.
//
// Usage:
//
//	lintdocs [ROOT]
//
// ROOT (default ".") is the module root. Every Go file under it is parsed.
// For the packages under ROOT/internal and ROOT/cmd two rules hold:
//
//   - exported top-level types, functions, methods, constants and variables of
//     non-test files must carry a doc comment, as must exported struct fields
//     and interface methods of exported types (an end-of-line comment counts
//     for fields);
//   - a top-level function or method of a non-test file must be named by
//     non-test code other than its own declaration, or by a test of another
//     package. A package's own tests do not keep a function in the product:
//     what only they use belongs in a _test.go file.
//
// README.md, DESIGN.md and EXPERIMENTS.md may back-quote only test, fuzz and
// benchmark functions some _test.go file of the tree declares (`TestFoo*`
// asks for one whose name starts with TestFoo), and a span that is only
// `-name` must name a flag some file of the tree declares with a string
// literal (fs.Int("name", ...), flag.BoolVar(&v, "name", ...)) or one of the
// go tool's goFlags.
//
// The second rule is syntactic. A function counts as named by `pkg.Name` in a
// file that imports its package and by a bare `Name` inside its package; a
// method counts as named by any `.Name` selector anywhere and by any interface
// type that lists Name (the methods of sort.Interface and heap.Interface are
// exempt), so it errs on the side of silence. Code anywhere under ROOT (examples and the benchmark
// module included) counts as a caller. Violations are printed as file:line
// diagnostics and the command exits nonzero — `make lint-docs` wires it into
// the verification suite.
package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: diagnostics go to stdout, one summary or error
// line to stderr; it returns the exit code (0 clean, 1 violations, 2 usage
// or unreadable tree).
func run(args []string, stdout, stderr io.Writer) int {
	root := "."
	switch len(args) {
	case 0:
	case 1:
		root = args[0]
	default:
		fmt.Fprintln(stderr, "usage: lintdocs [ROOT]")
		return 2
	}
	problems, err := lintTree(root)
	if err != nil {
		fmt.Fprintln(stderr, "lintdocs:", err)
		return 2
	}
	for _, p := range problems {
		fmt.Fprintln(stdout, p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(stderr, "lintdocs: %d problems\n", len(problems))
		return 1
	}
	return 0
}

// funcKey identifies what a reference can name without type information: a
// function by import path and name, a method (pkg == "") by name alone.
type funcKey struct{ pkg, name string }

// user is one place a funcKey is named from: the body of a non-test
// declaration (decl nil: package-level code), or, with testDir set, the tests
// of that directory.
type user struct {
	decl    *ast.FuncDecl
	testDir string
}

// lintTree parses every Go file under root and returns the diagnostics of
// the two code rules for the packages under root/internal and root/cmd and
// of the test-name rule for the docFiles, sorted by position.
func lintTree(root string) ([]string, error) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	type diag struct {
		file string
		line int
		msg  string
	}
	var diags []diag
	flag := func(pos token.Pos, format string, a ...any) {
		p := fset.Position(pos)
		rel, err := filepath.Rel(root, p.Filename)
		if err != nil {
			rel = p.Filename
		}
		diags = append(diags, diag{filepath.ToSlash(rel), p.Line, fmt.Sprintf(format, a...)})
	}
	type declared struct {
		d   *ast.FuncDecl
		key funcKey
		dir string
	}
	var decls []declared
	refs := map[funcKey]map[user]bool{}
	tests, flags := map[string]bool{}, map[string]bool{}
	err = filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if n := e.Name(); p != root && (n == "testdata" || n[0] == '.' || n[0] == '_') {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(rel)
		pkg := path.Join(module, dir)
		isTest := strings.HasSuffix(p, "_test.go")
		linted := !isTest && (strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/"))
		imports := importNames(file)
		collectFlags(file, flags)
		for _, decl := range file.Decls {
			fd, _ := decl.(*ast.FuncDecl)
			if isTest && fd != nil && fd.Recv == nil {
				tests[fd.Name.Name] = true
			}
			if linted {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					lintFunc(d, flag)
					if key, ok := keyOf(d, file.Name.Name, pkg); ok {
						decls = append(decls, declared{d, key, dir})
					}
				case *ast.GenDecl:
					lintGen(d, flag)
				}
			}
			from := user{decl: fd}
			if isTest {
				from = user{testDir: dir}
			}
			collectRefs(decl, pkg, imports, func(k funcKey) {
				if refs[k] == nil {
					refs[k] = map[user]bool{}
				}
				refs[k][from] = true
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, dc := range decls {
		// Its own declaration and its own package's tests do not count.
		named := false
		for u := range refs[dc.key] {
			if u != (user{decl: dc.d}) && u != (user{testDir: dc.dir}) {
				named = true
				break
			}
		}
		if !named {
			what, name := describe(dc.d)
			flag(dc.d.Name.Pos(), "%s %s is named by no non-test code and by no other package's test", what, name)
		}
	}
	if err := lintDocRefs(root, tests, flags, func(file string, line int, msg string) {
		diags = append(diags, diag{file, line, msg})
	}); err != nil {
		return nil, err
	}
	sort.SliceStable(diags, func(i, j int) bool {
		if diags[i].file != diags[j].file {
			return diags[i].file < diags[j].file
		}
		return diags[i].line < diags[j].line
	})
	out := make([]string, len(diags))
	for i, d := range diags {
		out[i] = fmt.Sprintf("%s:%d: %s", d.file, d.line, d.msg)
	}
	return out, nil
}

// docFiles are the prose files whose back-quoted test names must resolve.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

// codeSpan matches a back-quoted span of one line, testName a test in it,
// flagSpan a span that is one flag.
var (
	codeSpan = regexp.MustCompile("`[^`\n]+`")
	testName = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*\*?`)
	flagSpan = regexp.MustCompile("^`-([A-Za-z][\\w-]*)`$")
)

// goFlags are the go tool's flags the docs may name without a declaration.
var goFlags = map[string]bool{"race": true, "short": true, "count": true, "run": true, "bench": true,
	"cpu": true, "benchtime": true, "timeout": true, "v": true}

// flagFuncs are the flag package's defining functions, as functions and as
// FlagSet methods.
var flagFuncs = map[string]bool{"Bool": true, "BoolVar": true, "Int": true, "IntVar": true, "Int64": true,
	"Int64Var": true, "Uint": true, "UintVar": true, "Float64": true, "Float64Var": true, "String": true,
	"StringVar": true, "Duration": true, "DurationVar": true, "Var": true, "Func": true, "TextVar": true}

// collectFlags adds to flags the name of every flag the file defines: the
// first string-literal argument of a call to one of flagFuncs.
func collectFlags(file *ast.File, flags map[string]bool) {
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || !flagFuncs[sel.Sel.Name] {
			return true
		}
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					flags[name] = true
				}
				break
			}
		}
		return true
	})
}

// lintDocRefs reports every test name in a back-quoted span of the docFiles
// under root that no test function of tests carries, and every span that is
// one flag neither flags nor goFlags holds.
func lintDocRefs(root string, tests, flags map[string]bool, report func(file string, line int, msg string)) error {
	for _, name := range docFiles {
		data, err := os.ReadFile(filepath.Join(root, name))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, span := range codeSpan.FindAllString(line, -1) {
				if m := flagSpan.FindStringSubmatch(span); m != nil && !flags[m[1]] && !goFlags[m[1]] {
					report(name, i+1, span+" names no flag declared in the tree")
				}
				for _, ref := range testName.FindAllString(span, -1) {
					if !declaresTest(tests, ref) {
						report(name, i+1, "`"+ref+"` names no test function in the tree")
					}
				}
			}
		}
	}
	return nil
}

// declaresTest reports whether tests holds ref, or with a trailing * a name
// that starts with it.
func declaresTest(tests map[string]bool, ref string) bool {
	prefix, ok := strings.CutSuffix(ref, "*")
	if !ok {
		return tests[ref]
	}
	for name := range tests {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// modulePath reads the module line of a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// importNames maps the name a file uses for each imported package to its
// import path (the last path element unless the import is renamed).
func importNames(file *ast.File) map[string]string {
	m := map[string]string{}
	for _, im := range file.Imports {
		p, err := strconv.Unquote(im.Path.Value)
		if err != nil {
			continue
		}
		name := path.Base(p)
		if im.Name != nil {
			name = im.Name.Name
		}
		m[name] = p
	}
	return m
}

// stdCalled lists the methods the standard library calls and this tree does
// not: those of sort.Interface and container/heap.Interface.
var stdCalled = map[string]bool{"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true}

// keyOf returns the key a declaration is looked up under; main and init are
// called by the runtime, the stdCalled methods by the standard library, and
// have none.
func keyOf(d *ast.FuncDecl, pkgName, pkg string) (funcKey, bool) {
	if d.Recv != nil {
		return funcKey{name: d.Name.Name}, !stdCalled[d.Name.Name]
	}
	if d.Name.Name == "init" || (pkgName == "main" && d.Name.Name == "main") {
		return funcKey{}, false
	}
	return funcKey{pkg: pkg, name: d.Name.Name}, true
}

// collectRefs reports every key the declaration could be naming: `x.Name`
// names method Name and, when x is an import of the file, function Name of
// that package; a bare `Name` names function Name of the file's own package;
// an interface type names the methods it lists, which is how their
// implementations get called. A declaration's own name is not a reference.
func collectRefs(decl ast.Decl, pkg string, imports map[string]string, ref func(funcKey)) {
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			if x.Recv != nil {
				ast.Inspect(x.Recv, visit)
			}
			ast.Inspect(x.Type, visit)
			if x.Body != nil {
				ast.Inspect(x.Body, visit)
			}
			return false
		case *ast.SelectorExpr:
			ref(funcKey{name: x.Sel.Name})
			if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
				ref(funcKey{pkg: imports[id.Name], name: x.Sel.Name})
			}
			ast.Inspect(x.X, visit)
			return false
		case *ast.InterfaceType:
			for _, m := range x.Methods.List {
				for _, n := range m.Names {
					ref(funcKey{name: n.Name})
				}
			}
		case *ast.Ident:
			ref(funcKey{pkg: pkg, name: x.Name})
		}
		return true
	}
	ast.Inspect(decl, visit)
}

// describe names a declaration the way the diagnostics print it.
func describe(d *ast.FuncDecl) (what, name string) {
	if d.Recv != nil && len(d.Recv.List) == 1 {
		return "method", receiverName(d.Recv.List[0].Type) + "." + d.Name.Name
	}
	return "function", d.Name.Name
}

// lintFunc flags undocumented exported functions and methods (methods on
// unexported receiver types are internal and skipped).
func lintFunc(d *ast.FuncDecl, flag func(token.Pos, string, ...any)) {
	if !d.Name.IsExported() || d.Doc != nil {
		return
	}
	what, name := describe(d)
	if d.Recv != nil {
		if recv := receiverName(d.Recv.List[0].Type); recv != "" && !ast.IsExported(recv) {
			return
		}
	}
	flag(d.Name.Pos(), "%s %s is exported but undocumented", what, name)
}

// lintGen flags undocumented exported types, constants and variables. A doc
// comment on the grouped declaration covers every spec in the group; a
// group without one needs per-spec comments.
func lintGen(d *ast.GenDecl, flag func(token.Pos, string, ...any)) {
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
				flag(s.Name.Pos(), "type %s is exported but undocumented", s.Name.Name)
			}
			if s.Name.IsExported() {
				lintTypeMembers(s, flag)
			}
		case *ast.ValueSpec:
			kind := "variable"
			if d.Tok == token.CONST {
				kind = "constant"
			}
			if d.Doc != nil || s.Doc != nil || s.Comment != nil {
				continue
			}
			for _, n := range s.Names {
				if n.IsExported() {
					flag(n.Pos(), "%s %s is exported but undocumented", kind, n.Name)
				}
			}
		}
	}
}

// lintTypeMembers flags undocumented exported struct fields and interface
// methods of an exported type; an end-of-line comment also counts.
func lintTypeMembers(s *ast.TypeSpec, flag func(token.Pos, string, ...any)) {
	var fields *ast.FieldList
	what := "struct field"
	switch t := s.Type.(type) {
	case *ast.StructType:
		fields = t.Fields
	case *ast.InterfaceType:
		fields = t.Methods
		what = "interface method"
	default:
		return
	}
	for _, f := range fields.List {
		if f.Doc != nil || f.Comment != nil {
			continue
		}
		for _, n := range f.Names {
			if n.IsExported() {
				flag(n.Pos(), "%s %s.%s is exported but undocumented", what, s.Name.Name, n.Name)
			}
		}
	}
}

// receiverName extracts the type identifier of a method receiver.
func receiverName(expr ast.Expr) string {
	switch t := expr.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return receiverName(t.X)
	case *ast.IndexExpr:
		return receiverName(t.X)
	}
	return ""
}
