package node

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// usageBlocks runs a built binary with -h and returns, per flag, the lines
// flag.PrintDefaults wrote for it: name, type, usage and default.
func usageBlocks(t *testing.T, bin string) map[string]string {
	t.Helper()
	out, _ := exec.Command(bin, "-h").CombinedOutput() // -h exits non-zero by design
	blocks := map[string]string{}
	name := ""
	for _, line := range strings.Split(string(out), "\n") {
		switch {
		case strings.HasPrefix(line, "  -"):
			name = strings.TrimPrefix(strings.Fields(line)[0], "-")
			blocks[name] = line
		case strings.HasPrefix(line, "    \t") && name != "":
			blocks[name] += "\n" + line
		}
	}
	if len(blocks) == 0 {
		t.Fatalf("%s -h printed no flags:\n%s", bin, out)
	}
	return blocks
}

// TestSharedFlagsIdentical builds the binaries and compares what each prints
// for a flag it shares with another: name, type, usage and default must be
// byte-identical, the default excepted where it is per-binary by design.
func TestSharedFlagsIdentical(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain on PATH")
	}
	bins := []string{"adplatform", "adrouter", "adload", "adchaos"}
	dir := t.TempDir()
	args := []string{"build", "-o", dir + string(os.PathSeparator)}
	for _, b := range bins {
		args = append(args, "./cmd/"+b)
	}
	build := exec.Command("go", args...)
	build.Dir = filepath.Join("..", "..")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	usage := map[string]map[string]string{}
	for _, b := range bins {
		usage[b] = usageBlocks(t, filepath.Join(dir, b))
	}

	world := []string{"adplatform", "adload", "adchaos"}
	stack := []string{"adplatform", "adload"}
	all := []string{"adplatform", "adrouter", "adload"}
	defaultSuffix := regexp.MustCompile(` \(default [^)]*\)$`)
	for _, tc := range []struct {
		flag       string
		in         []string
		ownDefault bool // each binary sizes its own world
	}{
		{"seed", world, true}, {"voters", world, true}, {"logrows", world, true},
		{"fault-rate", all, false}, {"fault-seed", all, false}, {"fault-kinds", all, false},
		{"privacy-k", all, false}, {"privacy-epsilon", all, false}, {"privacy-seed", all, false},
		{"store-dir", stack, false}, {"fsync", stack, false}, {"shed-cap", stack, false},
		{"drain-timeout", []string{"adplatform", "adrouter"}, false},
	} {
		var first string
		for i, b := range tc.in {
			got, ok := usage[b][tc.flag]
			if !ok {
				t.Errorf("%s has no -%s", b, tc.flag)
				continue
			}
			if tc.ownDefault {
				got = defaultSuffix.ReplaceAllString(got, "")
			}
			if i == 0 {
				first = got
			} else if got != first {
				t.Errorf("-%s differs between %s and %s:\n%s\n%s", tc.flag, tc.in[0], b, first, got)
			}
		}
	}
}
