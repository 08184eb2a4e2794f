package archtest

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// uncalled returns every exported package-level name and method under
// internal/ that no non-test file outside its package refers to, spelled
// "pkg.Name" or "pkg.Type.Method" with pkg the path below internal/. Two
// kinds of name count as referenced without a reference:
//   - a method whose receiver implements an interface, of the module or of
//     the standard library, that declares the method;
//   - a type that appears in the signature or the exported fields of a
//     referenced name.
func (m *module) uncalled() []string {
	names := map[types.Object]string{}
	for _, p := range m.pkgs {
		if !p.internal() {
			continue
		}
		prefix := strings.TrimPrefix(p.path, "smpigo/internal/") + "."
		scope := p.types.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if obj.Exported() {
				names[obj] = prefix + n
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := range named.NumMethods() {
				if fn := named.Method(i); fn.Exported() {
					names[fn] = prefix + n + "." + fn.Name()
				}
			}
		}
	}

	used := map[types.Object]bool{}
	var queue []types.Object
	use := func(obj types.Object) {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if _, ok := names[obj]; ok && !used[obj] {
			used[obj] = true
			queue = append(queue, obj)
		}
	}
	for _, p := range m.pkgs {
		for _, obj := range p.info.Uses {
			if obj.Pkg() != nil && obj.Pkg() != p.types {
				use(obj)
			}
		}
	}
	m.useImplemented(names, use)
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		if tn, ok := obj.(*types.TypeName); ok {
			walkDecl(tn.Type().Underlying(), use)
		} else {
			walk(obj.Type(), use)
		}
	}

	var out []string
	for obj, name := range names {
		if !used[obj] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// uncalledUnexported returns every unexported package-level function and
// every unexported method under internal/ that no non-test file calls,
// spelled "pkg.name" or "pkg.Type.method" as uncalled spells names. A
// method that implements an interface declaring it counts as called, as in
// uncalled; a call from the function's own body does not.
func (m *module) uncalledUnexported() []string {
	names := map[types.Object]string{}
	bodies := map[token.Pos][2]token.Pos{} // a declaration's name to its extent
	for _, p := range m.pkgs {
		if !p.internal() {
			continue
		}
		prefix := strings.TrimPrefix(p.path, "smpigo/internal/") + "."
		scope := p.types.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if fn, ok := obj.(*types.Func); ok && !fn.Exported() {
				names[fn] = prefix + n
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := range named.NumMethods() {
				if fn := named.Method(i); !fn.Exported() {
					names[fn] = prefix + n + "." + fn.Name()
				}
			}
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					bodies[fd.Name.Pos()] = [2]token.Pos{fd.Pos(), fd.End()}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	use := func(obj types.Object) {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if _, ok := names[obj]; ok {
			used[obj] = true
		}
	}
	for _, p := range m.pkgs {
		for id, obj := range p.info.Uses {
			if body, ok := bodies[obj.Pos()]; ok && body[0] <= id.Pos() && id.Pos() < body[1] {
				continue
			}
			use(obj)
		}
	}
	m.useImplemented(names, use)

	var out []string
	for obj, name := range names {
		if !used[obj] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// useImplemented calls use on each method of names that a type of the
// module has because an interface declares it: a method an interface
// declares is reached through the interface, on whichever type implements
// it, promoted or not.
func (m *module) useImplemented(names map[types.Object]string, use func(types.Object)) {
	methods := map[string]bool{}
	for obj := range names {
		if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
			methods[fn.Name()] = true
		}
	}
	var ifaces []*types.Interface
	for _, iface := range m.interfaces() {
		for i := range iface.NumMethods() {
			if methods[iface.Method(i).Name()] {
				ifaces = append(ifaces, iface)
				break
			}
		}
	}
	for _, p := range m.pkgs {
		scope := p.types.Scope()
		for _, n := range scope.Names() {
			tn, ok := scope.Lookup(n).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			if named, ok := tn.Type().(*types.Named); !ok || named.TypeParams() != nil {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			for _, iface := range ifaces {
				if !types.Implements(ptr, iface) {
					continue
				}
				for i := range iface.NumMethods() {
					method := iface.Method(i)
					obj, _, _ := types.LookupFieldOrMethod(ptr, true, method.Pkg(), method.Name())
					use(obj)
				}
			}
		}
	}
}

// interfaces returns every method-set interface that a package of the
// module declares or imports, directly or not, and error.
func (m *module) interfaces() []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, n := range scope.Names() {
			tn, ok := scope.Lookup(n).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams() != nil {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.IsMethodSet() {
				out = append(out, iface)
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range m.pkgs {
		visit(p.types)
	}
	return out
}

// walkDecl calls use on each named type a referenced type's declaration
// shows its users: a struct's exported fields, or all of any other type.
func walkDecl(t types.Type, use func(types.Object)) {
	if st, ok := t.(*types.Struct); ok {
		for i := range st.NumFields() {
			if f := st.Field(i); f.Exported() {
				walk(f.Type(), use)
			}
		}
		return
	}
	walk(t, use)
}

// walk calls use on each named type t is built from.
func walk(t types.Type, use func(types.Object)) {
	switch t := t.(type) {
	case *types.Alias:
		use(t.Obj())
		walk(types.Unalias(t), use)
	case *types.Named:
		use(t.Origin().Obj())
		for i := range t.TypeArgs().Len() {
			walk(t.TypeArgs().At(i), use)
		}
	case *types.Pointer:
		walk(t.Elem(), use)
	case *types.Slice:
		walk(t.Elem(), use)
	case *types.Array:
		walk(t.Elem(), use)
	case *types.Chan:
		walk(t.Elem(), use)
	case *types.Map:
		walk(t.Key(), use)
		walk(t.Elem(), use)
	case *types.Signature:
		if t.Recv() != nil {
			walk(t.Recv().Type(), use)
		}
		for i := range t.Params().Len() {
			walk(t.Params().At(i).Type(), use)
		}
		for i := range t.Results().Len() {
			walk(t.Results().At(i).Type(), use)
		}
	case *types.Struct:
		walkDecl(t, use)
	case *types.Interface:
		for i := range t.NumMethods() {
			sig := t.Method(i).Signature()
			if sig.Recv() != nil && sig.Recv().Type() == t {
				// The method is t's own: its receiver is t, which walking
				// again would never finish.
				sig = types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())
			}
			walk(sig, use)
		}
	}
}
