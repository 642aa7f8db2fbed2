package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestAllowlistKeysExist keeps the built-in allowlists honest: every
// panicgate and wallclock exemption must name a function that still
// exists in the module's shipped (non-test) code. A deleted or renamed
// function otherwise leaves a dead exemption behind, silently waiving
// the check for any future function that reuses the name.
func TestAllowlistKeysExist(t *testing.T) {
	declared := declaredFuncKeys(t, moduleRoot(t))
	for name, allow := range map[string]map[string]string{
		"panicgate": panicgateAllow,
		"wallclock": wallclockAllow,
	} {
		var stale []string
		for key := range allow {
			if !declared[key] {
				stale = append(stale, key)
			}
		}
		sort.Strings(stale)
		for _, key := range stale {
			t.Errorf("%s allowlist names %q, which is not declared in the tree", name, key)
		}
	}
}

// declaredFuncKeys parses every non-test Go file of the module rooted
// at root and returns the allowlist key of each function declaration:
// the package directory relative to root, a dot, then "Func" or
// "Type.Method" exactly as Pass.FuncKey names it. Nested modules and
// testdata fixtures are skipped.
func declaredFuncKeys(t *testing.T, root string) map[string]bool {
	t.Helper()
	keys := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pass := &Pass{Fset: fset}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				keys[filepath.ToSlash(rel)+"."+pass.FuncKey(f, fd.Pos())] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("parsing the tree: %v", err)
	}
	return keys
}
