package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// resultSchema names the one result-file format of this repository's
// benchmark.
const resultSchema = "adaudit/bench/v2"

// workloadResult is one workload's section of a result file: every run's
// value for each end-to-end metric, and the traced pass's per-layer values.
type workloadResult struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	PerLayer  map[string]float64   `json:"per_layer,omitempty"`
}

// resultFile is what `bench run` writes and `bench compare` reads.
type resultFile struct {
	Schema    string                     `json:"schema"`
	Host      hostBlock                  `json:"host"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Runs      int                        `json:"runs"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// cmdRun measures every workload: -runs untraced passes and one traced pass
// each. It re-executes this binary once per pass, so set-up time, peak RSS
// and GC state are per pass and nothing carries over.
func cmdRun(args []string) int {
	fs := flag.NewFlagSet("bench run", flag.ContinueOnError)
	seed := fs.Int64("seed", 11, "workload seed")
	seconds := fs.Float64("seconds", runSeconds, "how long each pass measures")
	runs := fs.Int("runs", 1, "untraced passes per workload; compare needs several to see run-to-run spread")
	only := fs.String("workload", "", "run only this workload")
	quick := fs.Bool("quick", false, "smoke: one second per pass, one set-up, no traced pass")
	outDir := fs.String("out", filepath.Join("bench", "out"), "directory for the result file and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *quick {
		*seconds = 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	file := resultFile{Schema: resultSchema, Host: host(), Seed: *seed, Seconds: *seconds, Runs: *runs, Workloads: map[string]*workloadResult{}}
	ok := true
	for _, wl := range workloads {
		if *only != "" && wl.name != *only {
			continue
		}
		wr := &workloadResult{Correct: true, EndToEnd: map[string][]float64{}}
		file.Workloads[wl.name] = wr
		pass := func(trace int) *result {
			argv := []string{"--workload", wl.name, "--seed", strconv.FormatInt(*seed, 10),
				"--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace), "--out", *outDir}
			if *quick {
				argv = append(argv, "--quick")
			}
			res, err := runPass(exe, argv)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s trace=%d: %v\n", wl.name, trace, err)
				wr.Correct = false
				return nil
			}
			wr.Correct = wr.Correct && res.Correct
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			return res
		}
		for i := 0; i < *runs; i++ {
			if res := pass(0); res != nil {
				for name, m := range res.Metrics {
					wr.EndToEnd[name] = append(wr.EndToEnd[name], m.Value)
				}
			}
		}
		if !*quick {
			if res := pass(1); res != nil {
				wr.PerLayer = map[string]float64{}
				for name, m := range res.Metrics {
					wr.PerLayer[name] = m.Value
				}
			}
		}
		ok = ok && wr.Correct
	}

	path := filepath.Join(*outDir, fmt.Sprintf("result-seed%d.json", *seed))
	data, err := json.MarshalIndent(&file, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printResult(&file)
	fmt.Printf("wrote %s\n", path)
	if !ok {
		fmt.Println("FAILED: a workload was incorrect or did not finish; see the PROBLEM lines above")
		return 1
	}
	return 0
}

// runPass executes one pass in a child process and parses the result from
// the last line of its standard output. The child's account of the run goes
// to this process's standard error.
func runPass(exe string, argv []string) (*result, error) {
	cmd := exec.Command(exe, argv...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &res, nil
}

// printResult prints every metric of every workload by name, with its unit
// and, for per-layer metrics, what it is predicted to move.
func printResult(f *resultFile) {
	h := f.Host
	fmt.Printf("%s seed=%d seconds=%g runs=%d host: %d cores GOMAXPROCS=%d %s %s/%s kernel %s\n",
		f.Schema, f.Seed, f.Seconds, f.Runs, h.Cores, h.GOMAXPROCS, h.GoVersion, h.GOOS, h.GOARCH, h.Kernel)
	for _, wl := range workloads {
		wr := f.Workloads[wl.name]
		if wr == nil {
			continue
		}
		fmt.Printf("\n%s: correct=%v attempted=%d failed=%d\n", wl.name, wr.Correct, wr.Attempted, wr.Failed)
		for _, d := range endToEnd {
			vs := wr.EndToEnd[d.Name]
			fmt.Printf("  %-44s %14.4f %-6s (%s is better, bound %g%%, n=%d)\n", d.Name, median(vs), d.Unit, d.Better, 100*d.Bound, len(vs))
		}
		names := make([]string, 0, len(wr.PerLayer))
		for name := range wr.PerLayer {
			names = append(names, name)
		}
		sort.Strings(names)
		moves := map[string]metricDef{}
		for _, d := range perLayer {
			moves[d.Name] = d
		}
		for _, name := range names {
			if v := wr.PerLayer[name]; v != 0 {
				fmt.Printf("  %-44s %14.4f %-6s -> %s\n", name, v, moves[name].Unit, moves[name].Moves)
			}
		}
	}
}
