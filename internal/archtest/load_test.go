package archtest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
)

// root is the repository root, seen from this package's directory.
const root = "../.."

// self is this package: its files spell every pattern the rules reject.
const self = "internal/archtest/"

// A source is one .go file of the repository, parsed without comments, so
// no rule can match one.
type source struct {
	path string // slash-separated, relative to root
	file *ast.File
}

func (s *source) test() bool  { return strings.HasSuffix(s.path, "_test.go") }
func (s *source) bench() bool { return strings.HasPrefix(s.path, "bench/") }

// A textFile is a workflow, action or JSON file the knob rule reads too.
type textFile struct {
	path string
	text string
}

// A pkg is one non-test package of either module, type-checked.
type pkg struct {
	path  string // import path
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// internal reports whether p is under internal/, where every exported name
// needs a caller.
func (p *pkg) internal() bool { return strings.HasPrefix(p.path, "smpigo/internal/") }

// A module is everything the rules read: every .go file under root, parsed,
// and the non-test packages of both modules, type-checked.
type module struct {
	fset  *token.FileSet
	files []*source
	text  []textFile
	pkgs  []*pkg
}

// A listed package is the part of `go list -json` the loader reads.
type listed struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	Error      *struct{ Err string }
}

// list runs `go list -deps -export` once per test binary. It runs in bench/,
// whose module replaces smpigo with the root, so one call lists the bench
// module, every package of the root module (cmd/ and examples/ included)
// and the compiled export data of each standard-library dependency.
var list = sync.OnceValues(func() ([]listed, error) {
	args := []string{"list", "-deps", "-export", "-json"}
	if raceEnabled {
		// Reuse the export data `go test -race` has just compiled.
		args = append(args, "-race")
	}
	cmd := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), append(args, "./...", "smpigo/...")...)
	cmd.Dir = filepath.Join(root, "bench")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	var pkgs []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listed
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
})

// repo is the repository as it is on disk, loaded once per test binary.
var repo = sync.OnceValues(func() (*module, error) { return load(nil) })

// load parses every .go file under root and type-checks the non-test
// packages of both modules. overlay adds files (path relative to root,
// source) to the module as if they were on disk; a test seeds a violation
// with it. An overlay test file, like a test file on disk, is parsed but
// not type-checked.
func load(overlay map[string]string) (*module, error) {
	pkgs, err := list()
	if err != nil {
		return nil, err
	}
	m := &module{fset: token.NewFileSet()}
	parsed := map[string]*ast.File{}
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		if ext := filepath.Ext(p); ext != ".go" && ext != ".yml" && ext != ".json" {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		parsed[rel], err = m.add(rel, src)
		return err
	})
	if err != nil {
		return nil, err
	}
	extra := map[string][]*ast.File{} // by directory
	for path, src := range overlay {
		f, err := m.add(path, []byte(src))
		if err != nil {
			return nil, err
		}
		if !strings.HasSuffix(path, "_test.go") {
			extra[filepath.Dir(path)] = append(extra[filepath.Dir(path)], f)
		}
	}

	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	checked := map[string]*types.Package{}
	gc := importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return gc.Import(path)
	})}
	// go list -deps prints a package after its dependencies, so each module
	// package's imports are checked before it is.
	for _, lp := range pkgs {
		if lp.Standard {
			exports[lp.ImportPath] = lp.Export
			continue
		}
		dir, err := filepath.Rel(absRoot, lp.Dir)
		if err != nil {
			return nil, err
		}
		dir = filepath.ToSlash(dir)
		var files []*ast.File
		for _, name := range lp.GoFiles {
			files = append(files, parsed[dir+"/"+name])
		}
		files = append(files, extra[dir]...)
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
		tp, err := conf.Check(lp.ImportPath, m.fset, files, info)
		if err != nil {
			return nil, err
		}
		checked[lp.ImportPath] = tp
		m.pkgs = append(m.pkgs, &pkg{lp.ImportPath, files, tp, info})
	}
	return m, nil
}

// add parses a .go file into m, or keeps any other file as text. This
// package's own files are parsed for the type checker but scanned by no
// rule.
func (m *module) add(path string, src []byte) (*ast.File, error) {
	if !strings.HasSuffix(path, ".go") {
		m.text = append(m.text, textFile{path, string(src)})
		return nil, nil
	}
	f, err := parser.ParseFile(m.fset, path, src, parser.SkipObjectResolution)
	if err == nil && !strings.HasPrefix(path, self) {
		m.files = append(m.files, &source{path, f})
	}
	return f, err
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
