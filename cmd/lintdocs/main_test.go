package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// fixture is a two-package module: package a ships one function nothing
// names (Dead), one only a's own test names (OwnTestOnly), one only b's test
// names (Shared, which must pass), one product code calls (Used, through
// b.Call) and one undocumented export (Bare, also called by b). Its README
// back-quotes two tests that exist, one by prefix, and one that does not
// (TestGone); a name outside back quotes is prose, not a reference. It also
// names the command's flag, a go tool flag and a flag nothing declares
// (-gone).
var fixture = map[string]string{
	"go.mod": "module fix\n\ngo 1.22\n",
	"README.md": "# fix\n\nRun `go test -run 'TestOwn|TestShared$' ./...`; `TestSha*` too.\n" +
		"`TestGone` was deleted, and so was TestAlsoGone.\n" +
		"Pass `-keep` or `-race`; `-gone` went with TestGone.\n",
	"internal/a/a.go": `// Package a is half of the lintdocs fixture.
package a

// Dead is named by nothing.
func Dead() {}

// OwnTestOnly is named by a_test.go alone.
func OwnTestOnly() {}

// Shared is named by package b's test.
func Shared() {}

// Used is named by package b.
func Used() { helper() }

func helper() {}

func Bare() {}
`,
	"internal/a/a_test.go": `package a

import "testing"

func TestOwn(t *testing.T) { OwnTestOnly() }
`,
	"internal/b/b.go": `// Package b is the other half.
package b

import "fix/internal/a"

// Call is named by the command.
func Call() { a.Used(); a.Bare() }
`,
	"internal/b/b_test.go": `package b

import (
	"testing"

	"fix/internal/a"
)

func TestShared(t *testing.T) { a.Shared() }
`,
	"cmd/tool/main.go": `// Command tool calls b.
package main

import (
	"flag"

	"fix/internal/b"
)

func main() {
	flag.Bool("keep", false, "a declared flag")
	b.Call()
}
`,
}

func writeFixture(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, body := range files {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestFixtureDiagnostics: exactly five lines — the README's references to a
// test and a flag that do not exist, the dead function, the one kept alive by
// its own package's test only, the undocumented export — and exit 1; the
// function another package's test shares and the declared flag pass.
func TestFixtureDiagnostics(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{writeFixture(t, fixture)}, &out, &errw)
	want := "README.md:4: `TestGone` names no test function in the tree\n" +
		"README.md:5: `-gone` names no flag declared in the tree\n" +
		`internal/a/a.go:5: function Dead is named by no non-test code and by no other package's test
internal/a/a.go:8: function OwnTestOnly is named by no non-test code and by no other package's test
internal/a/a.go:18: function Bare is exported but undocumented
`
	if code != 1 || out.String() != want || errw.String() != "lintdocs: 5 problems\n" {
		t.Fatalf("exit %d, stderr %q, stdout:\n%swant:\n%s", code, errw.String(), out.String(), want)
	}
}

// TestCleanTreeAndUsage: the fixture without package a's three offenders and
// the README's dangling references is exit 0 and silent; two arguments or a
// root without go.mod is exit 2.
func TestCleanTreeAndUsage(t *testing.T) {
	clean := map[string]string{}
	for name, body := range fixture {
		clean[name] = body
	}
	clean["internal/a/a.go"] = `// Package a is half of the lintdocs fixture.
package a

// Shared is named by package b's test.
func Shared() {}

// Used is named by package b.
func Used() {}

// Bare is named by package b.
func Bare() {}
`
	delete(clean, "internal/a/a_test.go")
	clean["README.md"] = "Run `go test -run TestShared ./...` with `-keep`.\n"
	var out, errw bytes.Buffer
	if code := run([]string{writeFixture(t, clean)}, &out, &errw); code != 0 || out.Len()+errw.Len() != 0 {
		t.Fatalf("clean tree: exit %d, stdout %q, stderr %q", code, out.String(), errw.String())
	}
	if code := run([]string{"a", "b"}, &out, &errw); code != 2 {
		t.Fatalf("two arguments: exit %d, want 2", code)
	}
	if code := run([]string{t.TempDir()}, &out, &errw); code != 2 {
		t.Fatalf("root without go.mod: exit %d, want 2", code)
	}
}
