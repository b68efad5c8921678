package poiesis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// interfaceMethods are exported method names that the standard library
// calls through an interface (fmt.Stringer, error, json.Marshaler,
// http.Handler, io.Writer, http.Flusher, slog.Handler), so a method of
// that name needs no caller in this repository.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "MarshalJSON": true,
	"ServeHTTP": true, "Write": true, "Flush": true,
	"Enabled": true, "Handle": true, "WithAttrs": true, "WithGroup": true,
}

// referenceImpls are the declarations, as package[.Receiver].Name, that
// only tests call: each is the reference a test compares production code
// against.
var referenceImpls = map[string]string{
	"skyline.Naive":      "the quadratic skyline that Incremental is checked against",
	"sim.Engine.Execute": "the uncached evaluation that cached runs are checked against",
	"obs.ParseText":      "the exposition-format parser the /metrics tests read counters with",
	"etl.KnownMeasures":  "the measure list the lint name tests compare against the measures package",
}

// TestInternalExportsHaveNonTestCallers fails for every exported function
// or method declared in a non-test file under internal/ whose name no
// non-test file of the module, examples/ or bench/ uses. Such code ships
// without a production caller; delete it, or list it in referenceImpls if
// it is a reference that tests compare against.
func TestInternalExportsHaveNonTestCallers(t *testing.T) {
	type decl struct {
		key, name, pos string // key is package[.Receiver].Name
	}
	var decls []decl
	used := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declared := map[*ast.Ident]bool{}
		inInternal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if !inInternal || !fn.Name.IsExported() || (fn.Recv != nil && interfaceMethods[fn.Name.Name]) {
				continue
			}
			key := f.Name.Name + "." + fn.Name.Name
			if fn.Recv != nil {
				key = f.Name.Name + "." + receiverName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			decls = append(decls, decl{key, fn.Name.Name, fset.Position(fn.Pos()).String()})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported declarations under internal/; is the test running from the module root?")
	}
	found := map[string]bool{}
	for _, d := range decls {
		found[d.key] = true
		if _, ok := referenceImpls[d.key]; ok {
			continue
		}
		if !used[d.name] {
			t.Errorf("%s: %s has no caller outside _test.go files", d.pos, d.key)
		}
	}
	for _, key := range slices.Sorted(maps.Keys(referenceImpls)) {
		if !found[key] {
			t.Errorf("referenceImpls lists %s, which is no longer declared", key)
		}
	}
}

// receiverName returns the type name of a method receiver, without
// pointer or type parameters.
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
