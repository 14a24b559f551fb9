package plb_test

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

// TestNoDeadExports fails on any exported top-level func, type, var or
// const declared in a non-test file under internal/ that no non-test
// .go file in the tree references outside its own declaration. Files
// under bench/ (its own module) count as references. A reference is a
// bare identifier in the declaring package or pkg.Name elsewhere,
// matched by name without type checking: the check can miss a dead
// name that shares its name with something else in its package, but it
// never flags a used one.
func TestNoDeadExports(t *testing.T) {
	raw, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	mod := strings.TrimSpace(strings.TrimPrefix(strings.SplitN(string(raw), "\n", 2)[0], "module"))

	type file struct {
		dir string
		f   *ast.File
	}
	var files []file
	pkgName := map[string]string{} // dir -> package name
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		dir := filepath.ToSlash(filepath.Dir(path))
		files = append(files, file{dir, f})
		pkgName[dir] = f.Name.Name
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	type key struct{ dir, name string }
	var declared []key
	used := map[key]bool{}
	for _, fl := range files {
		// Map this file's import names to package directories in the
		// tree; the standard library is not tracked.
		imports := map[string]string{}
		var dotDirs []string
		for _, imp := range fl.f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			dir := ""
			switch {
			case p == mod:
				dir = "."
			case strings.HasPrefix(p, mod+"/"):
				dir = strings.TrimPrefix(p, mod+"/")
			default:
				continue
			}
			switch {
			case imp.Name == nil:
				imports[pkgName[dir]] = dir
			case imp.Name.Name == ".":
				dotDirs = append(dotDirs, dir)
			case imp.Name.Name != "_":
				imports[imp.Name.Name] = dir
			}
		}
		// walk records every reference in n except to the names in own,
		// the ones n itself declares.
		var walk func(n ast.Node, own map[string]bool)
		walk = func(n ast.Node, own map[string]bool) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SelectorExpr:
					if id, ok := x.X.(*ast.Ident); ok {
						if dir, ok := imports[id.Name]; ok {
							used[key{dir, x.Sel.Name}] = true
							return false
						}
					}
					// A field or method name never names a top-level
					// declaration; only the operand can reference one.
					walk(x.X, own)
					return false
				case *ast.Ident:
					if !own[x.Name] {
						used[key{fl.dir, x.Name}] = true
						for _, d := range dotDirs {
							used[key{d, x.Name}] = true
						}
					}
				}
				return true
			})
		}
		checked := strings.HasPrefix(fl.dir, "internal/")
		for _, decl := range fl.f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil {
					walk(d, nil)
					continue
				}
				if checked && d.Name.IsExported() {
					declared = append(declared, key{fl.dir, d.Name.Name})
				}
				walk(d, map[string]bool{d.Name.Name: true})
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					own := map[string]bool{}
					switch s := spec.(type) {
					case *ast.TypeSpec:
						own[s.Name.Name] = true
					case *ast.ValueSpec:
						for _, id := range s.Names {
							own[id.Name] = true
						}
					case *ast.ImportSpec:
						continue
					}
					for name := range own {
						if checked && ast.IsExported(name) {
							declared = append(declared, key{fl.dir, name})
						}
					}
					walk(spec, own)
				}
			}
		}
	}

	var dead []string
	for _, k := range declared {
		if !used[k] {
			dead = append(dead, pkgName[k.dir]+"."+k.name+" ("+k.dir+")")
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Fatalf("%d exported names under internal/ are referenced by no non-test file; delete them, or move test-only helpers into the tests that use them:\n  %s",
			len(dead), strings.Join(dead, "\n  "))
	}
}
