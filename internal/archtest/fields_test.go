package archtest

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strings"
)

// unsetOrUnread returns each exported, non-embedded field of an exported
// struct type under internal/ that no non-test file of either module sets,
// or that none reads, spelled "pkg.Type.Field" with pkg the path below
// internal/, mapped to what is missing. A field is set by:
//   - the left side of an assignment or of ++ and --;
//   - a keyed or positional element of a composite literal;
//   - the operand of &;
//   - the receiver of a method call (an atomic counter's Add).
//
// An array element or a struct field of a field held by value is part of
// it: setting one, or slicing the array, sets the field. Every other use
// reads it, and so do the last three forms, slicing and a compound
// assignment, which cannot be told from a read. A field with a json tag
// other than "-" is set and read by encoding/json.
func (m *module) unsetOrUnread() map[string]string {
	fields := map[*types.Var]string{}
	set, read := map[*types.Var]bool{}, map[*types.Var]bool{}
	for _, p := range m.pkgs {
		if !p.internal() {
			continue
		}
		prefix := strings.TrimPrefix(p.path, "smpigo/internal/") + "."
		scope := p.types.Scope()
		for _, n := range scope.Names() {
			tn, ok := scope.Lookup(n).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := range st.NumFields() {
				f := st.Field(i)
				if !f.Exported() || f.Embedded() {
					continue
				}
				fields[f] = prefix + n + "." + f.Name()
				if tag, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok && tag != "-" {
					set[f], read[f] = true, true
				}
			}
		}
	}

	for _, p := range m.pkgs {
		setOnly := map[*ast.Ident]bool{} // a use that sets the field and does not read it
		field := func(id *ast.Ident) *types.Var {
			if v, ok := p.info.Uses[id].(*types.Var); ok && v.IsField() {
				return v.Origin()
			}
			return nil
		}
		// sets marks the field e selects as set. An array element or a
		// struct field of a field held by value is part of it, so setting
		// one sets the field too.
		sets := func(e ast.Expr, only bool) {
			for e != nil {
				var whole ast.Expr
				switch x := ast.Unparen(e).(type) {
				case *ast.SelectorExpr:
					if f := field(x.Sel); f != nil {
						set[f] = true
						setOnly[x.Sel] = only
					}
					whole = x.X
				case *ast.IndexExpr:
					whole = x.X
				}
				e = nil
				if whole != nil && byValue(p.info.Types[whole].Type) {
					e = whole
				}
			}
		}
		for _, file := range p.files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						sets(l, n.Tok == token.ASSIGN)
					}
				case *ast.IncDecStmt:
					sets(n.X, false)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						sets(n.X, false)
					}
				case *ast.SliceExpr:
					if _, ok := p.info.Types[n.X].Type.Underlying().(*types.Array); ok {
						sets(n.X, false) // slicing an array takes its address
					}
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
						if fn, ok := p.info.Uses[sel.Sel].(*types.Func); ok && fn.Signature().Recv() != nil {
							sets(sel.X, false)
						}
					}
				case *ast.CompositeLit:
					t := p.info.Types[n].Type
					if ptr, ok := t.Underlying().(*types.Pointer); ok {
						t = ptr.Elem() // an elided &T in a []*T literal
					}
					st, ok := t.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							key := kv.Key.(*ast.Ident) // a struct literal's keys are field names
							set[field(key)], setOnly[key] = true, true
						} else {
							set[st.Field(i).Origin()] = true
						}
					}
				}
				return true
			})
		}
		for id, obj := range p.info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() && !setOnly[id] {
				read[v.Origin()] = true
			}
		}
	}

	out := map[string]string{}
	for f, name := range fields {
		switch {
		case !set[f] && !read[f]:
			out[name] = "no non-test file sets or reads it"
		case !set[f]:
			out[name] = "no non-test file sets it"
		case !read[f]:
			out[name] = "no non-test file reads it"
		}
	}
	return out
}

// byValue reports whether a value of type t holds its elements or fields
// in itself: an array or a struct, not a pointer, slice or map to them.
func byValue(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Array, *types.Struct:
		return true
	}
	return false
}
