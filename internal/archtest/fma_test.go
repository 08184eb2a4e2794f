package archtest

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// fused matches a fused multiply-add in go tool objdump's arm64 output:
// FMADDD, FMSUBD, FNMADDD or FNMSUBD.
var fused = regexp.MustCompile(`\sF(N)?M(ADD|SUB)D\s`)

// TestNoFusedMultiplyAdd holds the determinism contract off amd64. The Go
// spec lets a compiler fuse x*y + z into one instruction that rounds once;
// arm64 does, amd64 never does, so a fused line computes other bits than
// every pinned fingerprint and golden. Writing the product as
// float64(x*y) rounds it and forbids the fusion. The test cross-builds
// every main package of the module for arm64 and fails on each fused
// instruction in the module's code, naming its file:line and function. It
// reads the object code, not the source, because fusion also joins a
// product to a sum in the next statement.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-builds every command for arm64")
	}
	gotool := filepath.Join(runtime.GOROOT(), "bin", "go")
	dir := t.TempDir()
	build := exec.Command(gotool, "build", "-o", dir+string(filepath.Separator), "./cmd/...", "./examples/...")
	build.Dir = root
	build.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("GOARCH=arm64 go build: %v\n%s", err, out)
	}
	bins, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) == 0 {
		t.Fatal("GOARCH=arm64 go build wrote no binary")
	}
	var sites []string
	for _, bin := range bins {
		out, err := exec.Command(gotool, "tool", "objdump", "-s", `^(smpigo/|main\.)`, filepath.Join(dir, bin.Name())).Output()
		if err != nil {
			t.Fatalf("objdump %s: %v", bin.Name(), err)
		}
		var fn string
		for _, line := range strings.Split(string(out), "\n") {
			if text, ok := strings.CutPrefix(line, "TEXT "); ok {
				fn = strings.Fields(text)[0]
				continue
			}
			if fused.MatchString(line) {
				sites = append(sites, strings.Fields(line)[0]+" in "+fn)
			}
		}
	}
	slices.Sort(sites)
	if sites = slices.Compact(sites); len(sites) > 0 {
		t.Errorf("fused multiply-add on arm64 at\n  %s\nround the product: float64(x*y) + z", strings.Join(sites, "\n  "))
	}
}
