package rbq

import (
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestPublicSurface compares every exported identifier, method and struct
// field of package rbq with the checked-in testdata/api.txt, so a change
// to the public surface — above all a second way to ask a query — shows
// up in review as a golden diff. To accept a change, replace the file
// with the surface the failure prints.
func TestPublicSurface(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, e.Name(), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	pkg, err := doc.NewFromFiles(fset, files, "rbq")
	if err != nil {
		t.Fatal(err)
	}

	var got []string
	values := func(kind string, vs []*doc.Value) {
		for _, v := range vs {
			for _, name := range v.Names {
				got = append(got, kind+" "+name)
			}
		}
	}
	funcs := func(fs []*doc.Func) {
		for _, f := range fs {
			got = append(got, "func "+f.Name)
		}
	}
	values("const", pkg.Consts)
	values("var", pkg.Vars)
	funcs(pkg.Funcs)
	for _, typ := range pkg.Types {
		got = append(got, "type "+typ.Name)
		values("const", typ.Consts)
		values("var", typ.Vars)
		funcs(typ.Funcs)
		for _, m := range typ.Methods {
			got = append(got, "method "+typ.Name+"."+m.Name)
		}
		for _, spec := range typ.Decl.Specs {
			st, ok := spec.(*ast.TypeSpec).Type.(*ast.StructType)
			if !ok {
				continue
			}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					if name.IsExported() {
						got = append(got, "field "+typ.Name+"."+name.Name)
					}
				}
			}
		}
	}
	slices.Sort(got)

	golden, err := os.ReadFile("testdata/api.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(golden)), "\n")
	if slices.Equal(got, want) {
		return
	}
	for _, line := range got {
		if !slices.Contains(want, line) {
			t.Errorf("added:   %s", line)
		}
	}
	for _, line := range want {
		if !slices.Contains(got, line) {
			t.Errorf("removed: %s", line)
		}
	}
	t.Errorf("public surface differs from testdata/api.txt; the surface now is:\n%s", strings.Join(got, "\n"))
}
