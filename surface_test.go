package mvs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowFile lists the exported identifiers of internal/* that no
// binary and no benchmark reaches but that stay for a stated reason, one
// "identifier<TAB>reason" per line.
const surfaceAllowFile = "surface_allow.txt"

// TestExportedSurfaceOnlyShrinks is the ratchet on the internal API: an
// exported function, type, method, constant or variable of internal/*
// must be reachable from a main under cmd/ or from bench/, or be named —
// with its reason — in surface_allow.txt. A new unreachable export fails;
// so does an allow-list entry that became reachable or no longer exists,
// so the list can only shrink. Tests and examples/ are not roots: what
// only they use is on the list as a test oracle, a fake or a fuzz
// surface.
//
// Reachability is computed with the standard library alone: `go list
// -export` names every package's files and the export data of the
// standard library, the module's packages are type-checked from source in
// dependency order, and uses are followed from the roots. A method also
// counts as used when its live receiver type satisfies an interface some
// live code can hold it through.
func TestExportedSurfaceOnlyShrinks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list -export over the module and bench/")
	}
	dead, exported := unreachableExports(t)
	allowed := readSurfaceAllow(t)
	t.Logf("internal/* exports %d identifiers; %d are unreachable from cmd/ and bench/, %d allow-listed", exported, len(dead), len(allowed))
	var fresh, stale []string
	for id := range dead {
		if _, ok := allowed[id]; !ok {
			fresh = append(fresh, id)
		}
	}
	for id := range allowed {
		if !dead[id] {
			stale = append(stale, id)
		}
	}
	sort.Strings(fresh)
	sort.Strings(stale)
	if len(fresh) > 0 {
		t.Errorf("exported but reachable from no main under cmd/ and not from bench/ — unexport or delete, or add to %s with a reason:\n  %s",
			surfaceAllowFile, strings.Join(fresh, "\n  "))
	}
	if len(stale) > 0 {
		t.Errorf("%s entries that are now reachable or gone — delete the lines:\n  %s",
			surfaceAllowFile, strings.Join(stale, "\n  "))
	}
}

func readSurfaceAllow(t *testing.T) map[string]string {
	f, err := os.Open(surfaceAllowFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allowed := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id, reason, _ := strings.Cut(line, "\t")
		if reason = strings.TrimSpace(reason); reason == "" {
			t.Fatalf("%s:%d: %q carries no reason", surfaceAllowFile, n, id)
		}
		if _, dup := allowed[id]; dup {
			t.Fatalf("%s:%d: %q listed twice", surfaceAllowFile, n, id)
		}
		allowed[id] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allowed
}

// listedPackage is the part of `go list -json` the analysis reads.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

// goList lists patterns and their dependencies, dependencies first, under
// bench/run.sh's hermetic environment.
func goList(t *testing.T, dir string, patterns ...string) []listedPackage {
	cmd := exec.Command("go", append([]string{"list", "-export", "-deps", "-json=ImportPath,Name,Dir,GoFiles,Export,Standard"}, patterns...)...)
	cmd.Dir = dir
	cmd.Env = hermeticEnv()
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs
		} else if err != nil {
			t.Fatalf("go list in %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
}

// surface is the module type-checked from source: who uses what.
type surface struct {
	info     types.Info
	uses     map[types.Object][]types.Object // declaration -> objects it names
	roots    []types.Object                  // everything a main package declares, and every init
	ifaces   []*types.Interface              // interface literals and the standard library's: always holdable
	internal []*types.Package                // mvs/internal/*
	module   []*types.Package                // internal + mains
}

// origin maps an instantiated generic function or field to its declaration.
func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

func loadSurface(t *testing.T) *surface {
	listed := append(goList(t, ".", "./cmd/...", "./internal/..."), goList(t, "bench", ".")...)
	exportFile := map[string]string{}
	for _, p := range listed {
		if p.Standard {
			exportFile[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file := exportFile[path]
		if file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	s := &surface{
		info: types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
		uses: map[types.Object][]types.Object{},
	}
	s.ifaces = append(s.ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	checked := map[string]*types.Package{}
	imported := map[string]bool{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		p, err := std.Import(path)
		if err == nil && !imported[path] {
			// An interface of a package the module imports can hold the
			// module's types: fmt.Stringer, sort.Interface, http.Handler...
			imported[path] = true
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
						s.ifaces = append(s.ifaces, it)
					}
				}
			}
		}
		return p, err
	})
	for _, p := range listed {
		if p.Standard || checked[p.ImportPath] != nil {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, &s.info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		s.module = append(s.module, pkg)
		if strings.HasPrefix(p.ImportPath, "mvs/internal/") {
			s.internal = append(s.internal, pkg)
		}
		for _, f := range files {
			s.indexFile(f, p.Name == "main")
		}
	}
	return s
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// indexFile records, for every top-level declaration of f, the objects it
// names; in a main package every declaration is a root.
func (s *surface) indexFile(f *ast.File, isMain bool) {
	record := func(owners []*ast.Ident, body ast.Node, root bool) {
		var used []types.Object
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if o := s.info.Uses[n]; o != nil && o.Pkg() != nil {
					used = append(used, origin(o))
				}
			case *ast.InterfaceType:
				if it, ok := s.info.TypeOf(n).(*types.Interface); ok && it.NumMethods() > 0 {
					s.ifaces = append(s.ifaces, it)
				}
			}
			return true
		})
		for _, id := range owners {
			o := s.info.Defs[id]
			if o == nil {
				continue
			}
			s.uses[o] = append(s.uses[o], used...)
			if root {
				s.roots = append(s.roots, o)
			}
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			record([]*ast.Ident{d.Name}, d, isMain || (d.Recv == nil && d.Name.Name == "init"))
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					record([]*ast.Ident{sp.Name}, sp, isMain)
				case *ast.ValueSpec:
					record(sp.Names, sp, isMain)
				}
			}
		}
	}
}

// namedTypes returns the module's package-level named types.
func (s *surface) namedTypes() []*types.TypeName {
	var out []*types.TypeName
	for _, pkg := range s.module {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				out = append(out, tn)
			}
		}
	}
	return out
}

// reach follows uses from the roots to a fixpoint, and returns the live set.
func (s *surface) reach() map[types.Object]bool {
	live := map[types.Object]bool{}
	var queue []types.Object
	mark := func(o types.Object) {
		if !live[o] {
			live[o] = true
			queue = append(queue, o)
		}
	}
	for _, o := range s.roots {
		mark(o)
	}
	named := s.namedTypes()
	// satisfied marks the methods through which tn's values can be held
	// in it, if tn (or *tn) implements it.
	satisfied := func(tn *types.TypeName, mset *types.MethodSet, it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			if mset.Lookup(it.Method(i).Pkg(), it.Method(i).Name()) == nil {
				return
			}
		}
		if !types.Implements(types.NewPointer(tn.Type()), it) {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			mark(origin(mset.Lookup(it.Method(i).Pkg(), it.Method(i).Name()).Obj()))
		}
	}
	for {
		for len(queue) > 0 {
			o := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, u := range s.uses[o] {
				mark(u)
			}
		}
		for _, tn := range named {
			if !live[tn] || types.IsInterface(tn.Type()) {
				continue
			}
			mset := types.NewMethodSet(types.NewPointer(tn.Type()))
			if mset.Len() == 0 {
				continue
			}
			for _, it := range s.ifaces {
				satisfied(tn, mset, it)
			}
			for _, in := range named {
				if it, ok := in.Type().Underlying().(*types.Interface); ok && live[in] && it.NumMethods() > 0 {
					satisfied(tn, mset, it)
				}
			}
		}
		if len(queue) == 0 {
			return live
		}
	}
}

// unreachableExports names every exported package-level identifier and
// method of internal/* that reach() does not find, as "pkg.Name" or
// "pkg.Type.Method" with pkg relative to internal/, and counts all of
// them, reachable or not.
func unreachableExports(t *testing.T) (dead map[string]bool, exported int) {
	s := loadSurface(t)
	live := s.reach()
	dead = map[string]bool{}
	for _, pkg := range s.internal {
		rel := strings.TrimPrefix(pkg.Path(), "mvs/internal/")
		for _, name := range pkg.Scope().Names() {
			o := pkg.Scope().Lookup(name)
			if o.Exported() {
				exported++
			}
			if !live[o] {
				// A dead type's methods go with it: one entry covers them.
				if o.Exported() {
					dead[rel+"."+name] = true
				}
				continue
			}
			tn, ok := o.(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !m.Exported() {
					continue
				}
				exported++
				if !live[m] {
					dead[rel+"."+name+"."+m.Name()] = true
				}
			}
		}
	}
	return dead, exported
}
