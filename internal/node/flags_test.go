package node

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
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

// TestSharedFlagsIdentical builds the binaries, checks each one's complete
// flag list, and compares what each prints for a flag it shares with
// another: name, type, usage and default must be byte-identical, the default
// excepted where it is per-binary by design.
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

	// Each binary's complete flag set, so that adding or removing a flag is
	// a reviewed diff here.
	for b, want := range map[string][]string{
		"adplatform": {"addr", "drain-timeout", "fsync", "logrows", "privacy-epsilon", "privacy-k", "privacy-seed",
			"review-reject", "seed", "shed-cap", "snapshot-every", "store-dir", "voterdir", "voters"},
		"adrouter": {"addr", "drain-timeout", "fault-kinds", "fault-rate", "fault-seed", "privacy-epsilon", "privacy-k",
			"privacy-seed", "shard-cmd", "shard-log-dir", "shards"},
		"adload": {"ads", "audience", "concurrency", "delivery-workers", "fault-kinds", "fault-rate", "fault-seed",
			"retries", "scenarios", "seed", "target", "voterfile"},
		"adchaos": {"actions", "chaos-seed", "logrows", "rate", "seed", "shard-bin", "shards", "tick", "ticks", "voters", "workdir"},
	} {
		var got []string
		for name := range usage[b] {
			got = append(got, name)
		}
		sort.Strings(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s flags:\n got  %v\n want %v", b, got, want)
		}
	}

	// A world size below one is refused at parse, under its flag, by each
	// binary that builds a world.
	world := []string{"adplatform", "adchaos"}
	for _, b := range world {
		for _, bad := range [][]string{{"-logrows", "0"}, {"-voters", "-1"}} {
			args := bad
			if b == "adchaos" {
				args = append([]string{"-shard-bin", "x"}, bad...)
			}
			cmd := exec.Command(filepath.Join(dir, b), args...)
			var stderr strings.Builder
			cmd.Stderr = &stderr
			err := cmd.Run()
			if want := bad[0] + " must be positive, got " + bad[1]; err == nil || !strings.Contains(stderr.String(), want) {
				t.Errorf("%s %v: exit %v, stderr %q; want a non-zero exit naming %q", b, args, err, stderr.String(), want)
			}
		}
	}

	servers := []string{"adplatform", "adrouter"}
	clients := []string{"adrouter", "adload"}
	defaultSuffix := regexp.MustCompile(` \(default [^)]*\)$`)
	for _, tc := range []struct {
		flag       string
		in         []string
		ownDefault bool // each binary sizes its own world
	}{
		{"seed", world, true}, {"voters", world, true}, {"logrows", world, true},
		{"fault-rate", clients, false}, {"fault-seed", clients, false}, {"fault-kinds", clients, false},
		{"privacy-k", servers, false}, {"privacy-epsilon", servers, false}, {"privacy-seed", servers, false},
		{"drain-timeout", servers, false},
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
