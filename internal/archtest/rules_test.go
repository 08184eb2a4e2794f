// Package archtest holds the module's architecture rules as one test. Each
// rule reads the parsed source of both modules (this one and bench/), never
// a comment, and four (calibration and the last three) also read the
// type-checked packages. The
// package has no non-test file.
package archtest

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// A rule is one architecture decision the code must keep. check returns one
// line per violation; msg says what to do instead.
type rule struct {
	name  string
	msg   string
	check func(m *module) []string
}

var rules = []rule{
	{"no solver knobs", "the deleted solver knobs are back", noSolverKnobs},
	{"no uncalled MPI mechanisms", "a deleted MPI mechanism is back in internal/smpi", noUncalledMPIMechanisms},
	{"one vocabulary", "give each vocabulary one home", oneVocabulary},
	{"one platform codec", "bind attributes through platform.XMLBinder", onePlatformCodec},
	{"one way to build a platform", "build platforms with NewHost/NewLink/SetRouter (fixtures: platformtest)", oneWayToBuildAPlatform},
	{"one heap entry per action", "re-key the action's heap entry with actionheap.Update", oneHeapEntryPerAction},
	{"no shared pools", "recycle on a free list owned by the run, not in a process-wide pool", noSharedPools},
	{"calibration is data", "read the checked-in models (Env.Default, BestFit, Piecewise); regenerate them with\n" +
		"  go test ./internal/experiments/ -run CalibrationIsCurrent -update", calibrationIsData},
	{"no benchmarks outside bench/", "time it in bench/ (workload or probe)", noBenchmarksOutsideBench},
	{"every exported name has a caller", "delete or unexport each name, or list it in exemptions with the reason it stays exported", everyExportedNameHasACaller},
	{"every exported field is set and read", "delete each field, or list it in fieldExemptions with the reason it stays", everyExportedFieldIsSetAndRead},
	{"every unexported function has a caller", "delete each function, move it into a _test.go file of its package, or list it in funcExemptions with the reason it stays", everyUnexportedFunctionHasACaller},
}

func TestRules(t *testing.T) {
	m, err := repo()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		t.Run(r.name, func(t *testing.T) {
			if v := r.check(m); len(v) > 0 {
				t.Errorf("%s\n%s", strings.Join(v, "\n"), r.msg)
			}
		})
	}
}

// at names the place of n.
func (m *module) at(n ast.Node, what string) string {
	p := m.fset.Position(n.Pos())
	return fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, what)
}

// scan calls visit on every node of every file keep accepts.
func (m *module) scan(keep func(*source) bool, visit func(s *source, n ast.Node)) {
	for _, s := range m.files {
		if keep(s) {
			ast.Inspect(s.file, func(n ast.Node) bool {
				if n != nil {
					visit(s, n)
				}
				return true
			})
		}
	}
}

// The file sets the rules scan: every file, the non-test files, and the
// non-test files outside the bench module.
func all(*source) bool         { return true }
func product(s *source) bool   { return !s.test() }
func simulator(s *source) bool { return !s.test() && !s.bench() }

// stringValue is the value of n if n is a string literal.
func stringValue(n ast.Node) (string, bool) {
	lit, ok := n.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	v, err := strconv.Unquote(lit.Value)
	return v, err == nil
}

// importName is the name f refers to the package at path by, or "".
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == path {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return path[strings.LastIndex(path, "/")+1:]
		}
	}
	return ""
}

// qualified reports whether n is pkg.name, with pkg the package at path as
// s imports it.
func qualified(s *source, n ast.Node, path, name string) bool {
	sel, ok := n.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == importName(s.file, path)
}

var knobs = regexp.MustCompile(`SolverWorkers|RateTolerance|solver-workers|rate-tolerance`)

// noSolverKnobs: the solver has one exact, serial path (docs/ARCHITECTURE.md,
// "The solver"). Its two deleted knobs were once threaded through eleven
// files one layer at a time; no spelling of them may come back, in Go, in a
// workflow or in a JSON file.
func noSolverKnobs(m *module) []string {
	var out []string
	m.scan(all, func(s *source, n ast.Node) {
		if id, ok := n.(*ast.Ident); ok && knobs.MatchString(id.Name) {
			out = append(out, m.at(n, id.Name))
		} else if v, ok := stringValue(n); ok && knobs.MatchString(v) {
			out = append(out, m.at(n, strconv.Quote(v)))
		}
	})
	for _, f := range m.text {
		for i, line := range strings.Split(f.text, "\n") {
			if knobs.MatchString(line) {
				out = append(out, fmt.Sprintf("%s:%d: %s", f.path, i+1, strings.TrimSpace(line)))
			}
		}
	}
	return out
}

// noUncalledMPIMechanisms: the world is the only communicator, and smpi
// implements the MPI calls something in this module makes
// (docs/ARCHITECTURE.md, "The MPI layer"). Dup/Split, persistent requests,
// probes, Scan and ReduceScatter were deleted because nothing called them;
// so is the next call nothing makes. This is the tenth rule's view of
// internal/smpi.
func noUncalledMPIMechanisms(m *module) []string {
	var out []string
	for _, v := range uncalledNames(m, exemptions) {
		if strings.HasPrefix(v, "smpi.") {
			out = append(out, v)
		}
	}
	return out
}

// oneVocabulary: each vocabulary a front end accepts has one home
// (docs/ARCHITECTURE.md, "The scenario path"). A second switch over back-end
// or op names, or a collective variant spelled outside its variant list, is
// a second copy, and the copies drift. "No contention" is a back-end name:
// only the back-end switch sets the smpi.Config field behind it.
func oneVocabulary(m *module) []string {
	homes := map[string][]string{}
	home := func(what string, s *source) {
		if !slices.Contains(homes[what], s.path) {
			homes[what] = append(homes[what], s.path)
		}
	}
	m.scan(simulator, func(s *source, n ast.Node) {
		switch n := n.(type) {
		case *ast.CaseClause:
			for _, e := range n.List {
				if v, ok := stringValue(e); ok && (v == "surf" || v == "scatter") {
					home(fmt.Sprintf("case %q", v), s)
				}
			}
		case *ast.BasicLit:
			if v, ok := stringValue(n); ok && (v == "recursive-doubling" || v == "dissemination") {
				home(strconv.Quote(v), s)
			}
		}
	})
	m.scan(func(s *source) bool {
		return simulator(s) && !strings.HasPrefix(s.path, "internal/smpi/") && !strings.HasPrefix(s.path, "examples/")
	}, func(s *source, n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				if sel, ok := l.(*ast.SelectorExpr); ok && sel.Sel.Name == "NoContention" {
					home("NoContention assigned", s)
				}
			}
		case *ast.KeyValueExpr:
			if k, ok := n.Key.(*ast.Ident); ok && k.Name == "NoContention" {
				home("NoContention assigned", s)
			}
		}
	})
	var out []string
	for what, files := range homes {
		if len(files) > 1 {
			out = append(out, fmt.Sprintf("%s in more than one file: %s", what, strings.Join(files, ", ")))
		}
	}
	slices.Sort(out)
	return out
}

// onePlatformCodec: each platform element lists its XML attributes once, in
// a bind function that the one codec in internal/platform/xml.go walks both
// ways (docs/ARCHITECTURE.md, "The platform side"). An xml.Attr anywhere
// else is a second encoder, and encoders drift from decoders.
func onePlatformCodec(m *module) []string {
	var out []string
	m.scan(func(s *source) bool {
		return product(s) && s.path != "internal/platform/xml.go"
	}, func(s *source, n ast.Node) {
		if qualified(s, n, "encoding/xml", "Attr") {
			out = append(out, m.at(n, "xml.Attr"))
		}
	})
	return out
}

// oneWayToBuildAPlatform: a platform is built one way, NewHost, NewLink,
// SetLinkNamer and SetRouter (docs/ARCHITECTURE.md, "The platform side");
// test fixtures go through internal/platform/platformtest. A named-host
// constructor or a pair route table is the deleted hand-built mode coming
// back, in a test as much as anywhere.
func oneWayToBuildAPlatform(m *module) []string {
	var out []string
	m.scan(all, func(s *source, n ast.Node) {
		id, ok := n.(*ast.Ident)
		if ok && (id.Name == "AddHost" || id.Name == "AddLink" || id.Name == "AddRoute" || strings.Contains(id.Name, "routeTable")) {
			out = append(out, m.at(n, id.Name))
		}
	})
	return out
}

// oneHeapEntryPerAction: the event heap holds one entry per action and
// re-keys it in place (docs/ARCHITECTURE.md, "The heap"). A generation
// stamp, or a counter of stale entries, is the deleted lazy-invalidation
// design coming back.
func oneHeapEntryPerAction(m *module) []string {
	var out []string
	m.scan(simulator, func(s *source, n ast.Node) {
		if id, ok := n.(*ast.Ident); ok && (id.Name == "Generation" || strings.Contains(id.Name, "Stamped")) {
			out = append(out, m.at(n, id.Name))
		} else if v, ok := stringValue(n); ok && strings.HasSuffix(v, ".stale") {
			out = append(out, m.at(n, strconv.Quote(v)))
		}
	})
	return out
}

// noSharedPools: the message path recycles its objects on free lists that
// one run owns (docs/ARCHITECTURE.md, "Object lifetimes on the message
// path"). A process-wide pool would carry objects from one smpigod job into
// the next.
func noSharedPools(m *module) []string {
	var out []string
	m.scan(simulator, func(s *source, n ast.Node) {
		if qualified(s, n, "sync", "Pool") {
			out = append(out, m.at(n, "sync.Pool"))
		}
	})
	return out
}

// calibrationIsData: NewEnv reads the models from calibration_data.go, and
// only cmd/calibrate and TestCalibrationIsCurrent run the Section 6
// procedure (docs/ARCHITECTURE.md, "The scenario path"). A use anywhere
// else puts the emulated SKaMPI ping-pong back on some start-up path. Uses
// are matched by object, so an import alias cannot hide one, and a renamed
// Calibrate fails the rule until the rule follows it.
func calibrationIsData(m *module) []string {
	const path, name = "smpigo/internal/experiments", "Calibrate"
	var calibrate types.Object
	for _, p := range m.pkgs {
		if p.path == path {
			calibrate = p.types.Scope().Lookup(name)
		}
	}
	if calibrate == nil {
		return []string{path + "." + name + " is gone: point this rule at what runs the calibration now"}
	}
	var out []string
	for _, p := range m.pkgs {
		if p.path == "smpigo/cmd/calibrate" {
			continue
		}
		for id, obj := range p.info.Uses {
			if obj == calibrate {
				out = append(out, m.at(id, name+"("))
			}
		}
	}
	slices.Sort(out)
	return out
}

// noBenchmarksOutsideBench: performance is measured in one place (README,
// "Measuring performance"); a micro-benchmark beside it is a second judge
// that nothing keeps honest.
func noBenchmarksOutsideBench(m *module) []string {
	var out []string
	m.scan(func(s *source) bool { return s.test() && !s.bench() }, func(s *source, n ast.Node) {
		if fn, ok := n.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Benchmark") {
			out = append(out, m.at(n, "func "+fn.Name.Name))
		}
	})
	return out
}

// everyExportedNameHasACaller: an exported name under internal/ is a
// promise someone must keep, and internal/ is plumbing: the product surface
// is the MPI API an application calls and the commands. So every exported
// package-level name and method there has a non-test caller outside its
// package (cmd/, examples/ and the bench module count), or an entry in
// exemptions that says why it stays exported. An entry whose name gained a
// caller or is gone fails too, so the list only shrinks.
func everyExportedNameHasACaller(m *module) []string {
	return uncalledNames(m, exemptions)
}

// uncalledNames returns the names uncalled reports that exempt does not
// list, then each entry of exempt that no longer applies.
func uncalledNames(m *module, exempt map[string]string) []string {
	flagged := map[string]string{}
	for _, name := range m.uncalled() {
		flagged[name] = "no non-test caller outside its package"
	}
	return unexempted(flagged, exempt, "it has a caller")
}

// everyExportedFieldIsSetAndRead: a field nothing sets is a setting no
// one can change, and one nothing reads is a result no one looks at; both
// are promises with no one to keep them. So every exported, non-embedded
// field of an exported struct type under internal/ is set by a non-test
// file and read by one (cmd/, examples/ and the bench module count), or
// has an entry in fieldExemptions that says why it stays. Like the tenth
// rule's list, that list only shrinks.
func everyExportedFieldIsSetAndRead(m *module) []string {
	return unsetOrUnreadFields(m, fieldExemptions)
}

// unsetOrUnreadFields returns the fields unsetOrUnread reports that exempt
// does not list, then each entry of exempt that no longer applies.
func unsetOrUnreadFields(m *module, exempt map[string]string) []string {
	return unexempted(m.unsetOrUnread(), exempt, "it is set and read")
}

// everyUnexportedFunctionHasACaller: an unexported function or method that
// only tests call is test code kept in the product, and one nothing calls
// is dead. So every unexported package-level function and method under
// internal/ has a non-test caller (itself excepted), or implements an
// interface that declares it, or has an entry in funcExemptions that says
// why it stays. Like the tenth rule's list, that list only shrinks.
func everyUnexportedFunctionHasACaller(m *module) []string {
	return uncalledFunctions(m, funcExemptions)
}

// uncalledFunctions returns the names uncalledUnexported reports that
// exempt does not list, then each entry of exempt that no longer applies.
func uncalledFunctions(m *module, exempt map[string]string) []string {
	flagged := map[string]string{}
	for _, name := range m.uncalledUnexported() {
		flagged[name] = "no non-test caller"
	}
	return unexempted(flagged, exempt, "it has a caller")
}

// unexempted returns "name: why" for each flagged name that exempt does not
// list, then a line for each entry of exempt that flags no name: the name
// is gone, or fixed (what fixed says).
func unexempted(flagged, exempt map[string]string, fixed string) []string {
	var out, stale []string
	for name, why := range flagged {
		if _, ok := exempt[name]; !ok {
			out = append(out, name+": "+why)
		}
	}
	for name := range exempt {
		if _, ok := flagged[name]; !ok {
			stale = append(stale, name+": exempt, but "+fixed+" or is gone; delete the entry")
		}
	}
	slices.Sort(out)
	slices.Sort(stale)
	return append(out, stale...)
}

// seeded returns a module of files alone (path relative to root, source),
// with no type-checked package.
func seeded(t *testing.T, files map[string]string) *module {
	t.Helper()
	m := &module{fset: token.NewFileSet()}
	for path, src := range files {
		if _, err := m.add(path, []byte(src)); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// Each migrated rule rejects what its grep in CI rejected, and none flags a
// comment.
func TestRulesRejectSeededViolations(t *testing.T) {
	const switchSurf = "package a\n\nfunc f(s string) {\n\tswitch s {\n\tcase \"surf\":\n\t}\n}\n"
	cases := []struct {
		rule  string
		files map[string]string
		want  bool
	}{
		{"no solver knobs", map[string]string{"internal/surf/x.go": "package surf\n\nvar SolverWorkers = 4\n"}, true},
		{"no solver knobs", map[string]string{"cmd/smpirun/x.go": "package main\n\nvar f = \"rate-tolerance\"\n"}, true},
		{"no solver knobs", map[string]string{".github/workflows/x.yml": "run: go run ./cmd/smpirun -solver-workers 4\n"}, true},
		{"no solver knobs", map[string]string{"bench/x.json": "{\"RateTolerance\": 0.1}\n"}, true},
		{"no solver knobs", map[string]string{"internal/surf/x.go": "package surf\n\n// SolverWorkers and -rate-tolerance are gone.\nvar x = 1\n"}, false},

		{"one vocabulary", map[string]string{"internal/a/a.go": switchSurf, "cmd/b/main.go": switchSurf}, true},
		{"one vocabulary", map[string]string{"internal/a/a.go": switchSurf}, false},
		{"one vocabulary", map[string]string{"internal/a/a.go": switchSurf, "cmd/b/main.go": "package main\n\n// case \"surf\": see internal/a\n"}, false},
		{"one vocabulary", map[string]string{"internal/a/a.go": switchSurf, "internal/a/a_test.go": switchSurf}, false},
		{"one vocabulary", map[string]string{"internal/a/a.go": "package a\n\nvar v = \"dissemination\"\n", "cmd/b/main.go": "package main\n\nvar v = []string{\"dissemination\"}\n"}, true},
		{"one vocabulary", map[string]string{"internal/a/a.go": "package a\n\nfunc f(c *smpi.Config) { c.NoContention = true }\n", "cmd/b/main.go": "package main\n\nvar c = smpi.Config{NoContention: true}\n"}, true},
		{"one vocabulary", map[string]string{"internal/a/a.go": "package a\n\nfunc f(c *smpi.Config) { c.NoContention = true }\n", "internal/smpi/x.go": "package smpi\n\nvar c = Config{NoContention: true}\n"}, false},

		{"one platform codec", map[string]string{"internal/topology/x.go": "package topology\n\nimport \"encoding/xml\"\n\nvar a xml.Attr\n"}, true},
		{"one platform codec", map[string]string{"internal/topology/x.go": "package topology\n\nimport enc \"encoding/xml\"\n\nvar a []enc.Attr\n"}, true},
		{"one platform codec", map[string]string{"internal/platform/xml.go": "package platform\n\nimport \"encoding/xml\"\n\nvar a xml.Attr\n"}, false},
		{"one platform codec", map[string]string{"internal/topology/x_test.go": "package topology\n\nimport \"encoding/xml\"\n\nvar a xml.Attr\n"}, false},
		{"one platform codec", map[string]string{"internal/topology/x.go": "package topology\n\nimport \"encoding/xml\"\n\n// Not an xml.Attr: the binder writes those.\nvar n xml.Name\n"}, false},

		{"one way to build a platform", map[string]string{"internal/surf/x_test.go": "package surf\n\nfunc f(p *platform.Platform) { p.AddHost(\"a\", 1e9) }\n"}, true},
		{"one way to build a platform", map[string]string{"internal/platform/x.go": "package platform\n\nvar routeTable map[[2]int]Route\n"}, true},
		{"one way to build a platform", map[string]string{"internal/platform/x.go": "package platform\n\n// AddHost( and routeTable are gone.\nvar x = 1\n"}, false},

		{"one heap entry per action", map[string]string{"internal/surf/x.go": "package surf\n\nfunc (a *action) Generation() uint64 { return 0 }\n"}, true},
		{"one heap entry per action", map[string]string{"internal/surf/x.go": "package surf\n\ntype Stamped interface{}\n"}, true},
		{"one heap entry per action", map[string]string{"internal/surf/x.go": "package surf\n\nvar key = \"surf.heap.stale\"\n"}, true},
		{"one heap entry per action", map[string]string{"bench/x.go": "package main\n\nvar key = \"surf.heap.stale\"\n"}, false},
		{"one heap entry per action", map[string]string{"internal/surf/x.go": "package surf\n\n// No Generation() and no Stamped entries.\nvar x = 1\n"}, false},

		{"no shared pools", map[string]string{"internal/smpi/x.go": "package smpi\n\nimport \"sync\"\n\nvar p sync.Pool\n"}, true},
		{"no shared pools", map[string]string{"internal/smpi/x_test.go": "package smpi\n\nimport \"sync\"\n\nvar p sync.Pool\n"}, false},
		{"no shared pools", map[string]string{"internal/smpi/x.go": "package smpi\n\nimport \"sync\"\n\n// Not a sync.Pool: the run owns the list.\nvar mu sync.Mutex\n"}, false},

		{"no benchmarks outside bench/", map[string]string{"internal/lmm/x_test.go": "package lmm\n\nfunc BenchmarkSolve(b *testing.B) {}\n"}, true},
		{"no benchmarks outside bench/", map[string]string{"bench/x_test.go": "package main\n\nfunc BenchmarkSolve(b *testing.B) {}\n"}, false},
		{"no benchmarks outside bench/", map[string]string{"internal/lmm/x_test.go": "package lmm\n\n// func BenchmarkSolve moved to bench/.\nvar x = 1\n"}, false},
	}
	checks := map[string]func(*module) []string{}
	for _, r := range rules {
		checks[r.name] = r.check
	}
	for _, c := range cases {
		if got := checks[c.rule](seeded(t, c.files)); (len(got) > 0) != c.want {
			t.Errorf("%s on %v: got %q, want a violation: %v", c.rule, c.files, got, c.want)
		}
	}

	// The field rule reads types. Each case declares a struct type name in
	// internal/core, and package main of cmd/smpirun uses its field X
	// through a package-level variable v<name>, in use or, in test, from a
	// test file; one load checks them all.
	fieldCases := []struct {
		name, decl, use, test string
		want                  bool
	}{
		{"Assigned", "struct{ X int }", "func init() { vAssigned.X = 1; println(vAssigned.X) }", "", false},
		{"Unset", "struct{ X int }", "func init() { println(vUnset.X) }", "", true},
		{"Unread", "struct{ X int }", "func init() { vUnread.X = 1 }", "", true},
		{"Compound", "struct{ X int }", "func init() { vCompound.X += 1 }", "", false},
		{"IncDec", "struct{ X int }", "func init() { vIncDec.X++ }", "", false},
		{"Keyed", "struct{ X int }", "func init() { vKeyed = core.Keyed{X: 1}; println(vKeyed.X) }", "", false},
		{"Positional", "struct{ X int }", "func init() { vPositional = core.Positional{1}; println(vPositional.X) }", "", false},
		{"Elided", "struct{ X int }", "var elided = []*core.Elided{{X: 1}}\n\nfunc init() { println(elided[0].X, vElided.X) }", "", false},
		{"Addressed", "struct{ X int }", "func init() { println(&vAddressed.X) }", "", false},
		{"Receiver", "struct{ X atomic.Int64 }", "func init() { vReceiver.X.Add(1) }", "", false},
		{"Element", "struct{ X [2]int }", "func init() { vElement.X[1] = 1; println(vElement.X[0]) }", "", false},
		{"Nested", "struct{ X struct{ Y int } }", "func init() { vNested.X.Y = 1; println(vNested.X.Y) }", "", false},
		{"Pointed", "struct{ X *struct{ Y int } }", "func init() { vPointed.X.Y = 1; println(vPointed.X.Y) }", "", true},
		{"Tagged", "struct{ X int `json:\"x\"` }", "", "", false},
		{"Untagged", "struct{ X int `json:\"-\"` }", "func init() { vUntagged.X = 1 }", "", true},
		{"Commented", "struct{ X int }", "func init() {\n\t// vCommented.X = 1\n\tprintln(vCommented.X)\n}", "", true},
		{"TestSet", "struct{ X int }", "func init() { println(vTestSet.X) }", "func init() { vTestSet.X = 1 }", true},
		{"Iface", "struct{ X interface{ Name() string } }", "func init() { vIface.X = nil; println(vIface.X) }", "", false},
	}
	decls := "package core\n\nimport \"sync/atomic\"\n\nvar _ atomic.Int64\n"
	uses := "package main\n\nimport \"smpigo/internal/core\"\n"
	// The calibration rule reads types too: of the two calls below only
	// the aliased one is experiments.Calibrate, and cmd/calibrate may make
	// it.
	uses += "\nimport exp \"smpigo/internal/experiments\"\n\nfunc Calibrate() {}\n\n" +
		"func seededCalibrations() {\n\texp.Calibrate(nil, nil, nil)\n\tCalibrate()\n}\n"
	const calibrateUse = "package main\n\nimport \"smpigo/internal/experiments\"\n\n" +
		"func seededCalibration() { experiments.Calibrate(nil, nil, nil) }\n"
	tests := "package main\n"
	for _, c := range fieldCases {
		decls += fmt.Sprintf("\ntype %s %s\n", c.name, c.decl)
		uses += fmt.Sprintf("\nvar v%s core.%s\n\n%s\n", c.name, c.name, c.use)
		tests += "\n" + c.test + "\n"
	}
	// The unexported-function rule reads types too, and shares the load:
	// seeded.go declares one function or method per case below, and a
	// test file of internal/core calls seededTestOnly.
	decls += `
func init() { seededCalled() }

func seededCalled() {}

func seededUncalled() {}

func seededRecursive(n int) {
	if n > 0 {
		seededRecursive(n - 1)
	}
}

func seededTestOnly() {}

type seededIface interface{ seededMethod() }

type seededImpl struct{}

func (seededImpl) seededMethod() {}
`
	m, err := load(map[string]string{"internal/core/seeded.go": decls, "cmd/smpirun/seeded.go": uses, "cmd/smpirun/seeded_test.go": tests,
		"internal/core/seeded_test.go": "package core\n\nfunc init() { seededTestOnly() }\n",
		"cmd/calibrate/seeded.go":      calibrateUse})
	if err != nil {
		t.Fatal(err)
	}
	if got := calibrationIsData(m); len(got) != 1 || !strings.HasPrefix(got[0], "cmd/smpirun/seeded.go:") {
		t.Errorf("calibration is data: got %q, want the one aliased call in cmd/smpirun/seeded.go", got)
	}
	gone := &module{fset: m.fset, pkgs: slices.DeleteFunc(slices.Clone(m.pkgs), func(p *pkg) bool { return p.path == "smpigo/internal/experiments" })}
	if got := calibrationIsData(gone); len(got) != 1 || !strings.Contains(got[0], "experiments.Calibrate is gone") {
		t.Errorf("calibration is data without experiments.Calibrate: got %q, want the rule to fail", got)
	}
	flagged := m.unsetOrUnread()
	for _, c := range fieldCases {
		field := "core." + c.name + ".X"
		if why, ok := flagged[field]; ok != c.want {
			t.Errorf("every exported field is set and read on %s %s used as %q: got %q, want a violation: %v", c.name, c.decl, c.use, why, c.want)
		}
	}
	// The exported-name rule walks the types a used name shows: Iface's
	// field is an unnamed interface, whose method's receiver is that
	// interface again.
	if slices.Contains(m.uncalled(), "core.Iface") {
		t.Errorf("every exported name has a caller: core.Iface is used from cmd/smpirun, got a violation")
	}
	uncalled := m.uncalledUnexported()
	for _, c := range []struct {
		name string
		want bool
	}{
		{"core.seededCalled", false},
		{"core.seededImpl.seededMethod", false}, // implements seededIface
		{"core.seededUncalled", true},
		{"core.seededRecursive", true}, // only calls itself
		{"core.seededTestOnly", true},
	} {
		if got := slices.Contains(uncalled, c.name); got != c.want {
			t.Errorf("every unexported function has a caller on %s: got a violation: %v, want %v", c.name, got, c.want)
		}
	}
}

// A re-added MPI call that nothing makes fails the MPI rule and the tenth.
func TestUncalledMPICallFails(t *testing.T) {
	m, err := load(map[string]string{"internal/smpi/scan.go": "package smpi\n\n" +
		"// Scan is MPI_Scan.\nfunc (c *Comm) Scan(r *Rank, sendbuf, recvbuf []byte, dt Datatype, op Op) {}\n"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"smpi.Comm.Scan: no non-test caller outside its package"}
	if got := noUncalledMPIMechanisms(m); !slices.Equal(got, want) {
		t.Errorf("no uncalled MPI mechanisms: got %q, want %q", got, want)
	}
	if got := everyExportedNameHasACaller(m); !slices.Equal(got, want) {
		t.Errorf("every exported name has a caller: got %q, want %q", got, want)
	}
}

// An exemption for a name that has a caller, or for one that is gone,
// fails the tenth rule; one for a field that is set and read, or gone,
// fails the field rule; one for an unexported function that has a caller,
// or is gone, fails the twelfth.
func TestStaleExemptionFails(t *testing.T) {
	m, err := repo()
	if err != nil {
		t.Fatal(err)
	}
	exempt := maps.Clone(exemptions)
	exempt["smpi.Rank.Send"] = "has a caller"
	exempt["smpi.Comm.Scan"] = "is gone"
	want := []string{
		"smpi.Comm.Scan: exempt, but it has a caller or is gone; delete the entry",
		"smpi.Rank.Send: exempt, but it has a caller or is gone; delete the entry",
	}
	if got := uncalledNames(m, exempt); !slices.Equal(got, want) {
		t.Errorf("got %q, want %q", got, want)
	}

	fieldExempt := maps.Clone(fieldExemptions)
	fieldExempt["smpi.Config.Procs"] = "is set and read"
	fieldExempt["smpi.Config.Deadline"] = "is gone"
	want = []string{
		"smpi.Config.Deadline: exempt, but it is set and read or is gone; delete the entry",
		"smpi.Config.Procs: exempt, but it is set and read or is gone; delete the entry",
	}
	if got := unsetOrUnreadFields(m, fieldExempt); !slices.Equal(got, want) {
		t.Errorf("got %q, want %q", got, want)
	}

	funcExempt := maps.Clone(funcExemptions)
	funcExempt["simix.Kernel.dispatch"] = "has a caller"
	funcExempt["simix.Proc.sleep"] = "is gone"
	want = []string{
		"simix.Kernel.dispatch: exempt, but it has a caller or is gone; delete the entry",
		"simix.Proc.sleep: exempt, but it has a caller or is gone; delete the entry",
	}
	if got := uncalledFunctions(m, funcExempt); !slices.Equal(got, want) {
		t.Errorf("got %q, want %q", got, want)
	}
}
