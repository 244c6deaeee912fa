package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// modulePath is the import path of the module rooted at repoRoot.
const modulePath = "phrasemine"

// testSupportPackages hold code written for tests to import; their
// exports have no production caller by design.
var testSupportPackages = map[string]bool{
	modulePath + "/internal/difftest":       true,
	modulePath + "/internal/diskio/faultfs": true,
}

// TestNoTestOnlyExports enforces that every exported package-level
// function in non-test internal/ code is referenced from some non-test Go
// file of the tree (the bench module included): an export that only tests
// call is production code nothing runs, and the tests should call what
// production calls instead. References are matched by identifier — a
// qualified pkg.Name from another package, a bare Name inside its own —
// without type checking.
func TestNoTestOnlyExports(t *testing.T) {
	type key struct{ pkg, name string }
	declared := map[key]string{} // -> file:line of the declaration
	referenced := map[key]bool{}
	for _, dir := range packageDirs(t) {
		rel, err := filepath.Rel(repoRoot, dir)
		if err != nil {
			t.Fatal(err)
		}
		pkgPath := modulePath
		if rel != "." {
			pkgPath += "/" + filepath.ToSlash(rel)
		}
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				imports := map[string]string{} // local name -> import path
				for _, imp := range f.Imports {
					path, err := strconv.Unquote(imp.Path.Value)
					if err != nil {
						t.Fatal(err)
					}
					name := path[strings.LastIndexByte(path, '/')+1:]
					if imp.Name != nil {
						name = imp.Name.Name
					}
					imports[name] = path
				}
				declNames := map[*ast.Ident]bool{}
				selectors := map[*ast.Ident]bool{}
				for _, d := range f.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok {
						continue
					}
					declNames[fd.Name] = true
					if fd.Recv == nil && fd.Name.IsExported() && strings.HasPrefix(pkgPath, modulePath+"/internal/") && !testSupportPackages[pkgPath] {
						pos := fset.Position(fd.Pos())
						declared[key{pkgPath, fd.Name.Name}] = filepath.ToSlash(filepath.Join(rel, filepath.Base(pos.Filename))) + ":" + strconv.Itoa(pos.Line)
					}
				}
				ast.Inspect(f, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.SelectorExpr:
						selectors[x.Sel] = true
						if id, ok := x.X.(*ast.Ident); ok {
							if path, ok := imports[id.Name]; ok {
								referenced[key{path, x.Sel.Name}] = true
							}
						}
					case *ast.Ident:
						if !declNames[x] && !selectors[x] {
							referenced[key{pkgPath, x.Name}] = true
						}
					}
					return true
				})
			}
		}
	}
	var unused []string
	for k, pos := range declared {
		if !referenced[k] {
			unused = append(unused, pos+": "+k.name)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but only tests call it; delete it or call the production form from the tests", u)
	}
}
