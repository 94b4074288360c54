package mvs

import (
	"os"
	"os/exec"
	"testing"
)

// hermeticEnv is bench/run.sh's Go environment: no workspace, no
// toolchain or module download, no inherited flags.
func hermeticEnv() []string {
	return append(os.Environ(), "GOWORK=off", "GOTOOLCHAIN=local", "GOPROXY=off", "GOFLAGS=")
}

// TestBenchModuleBuilds vets and builds bench/, the benchmark's module,
// under bench/run.sh's environment. It is a module of its own (mvs/bench,
// bench/README.md), so go build, vet and test at the root never compile
// it, while it imports a dozen internal/ packages: this is where tier 1
// notices that a change to pipeline.DecodeFramePart, scene.MarshalFrame,
// store.Open or any other symbol it uses broke the benchmark, before the
// acceptance driver's first run does.
func TestBenchModuleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the benchmark module")
	}
	// -o /dev/null: bench/ is one main package, which go build ./... would
	// otherwise link into the directory.
	for _, args := range [][]string{{"vet", "./..."}, {"build", "-o", os.DevNull, "./..."}} {
		cmd := exec.Command("go", args...)
		cmd.Dir = "bench"
		cmd.Env = hermeticEnv()
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("bench: go %v: %v\n%s", args, err, out)
		}
	}
}
