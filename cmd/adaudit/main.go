// Command adaudit reproduces the paper's evaluation: it builds the simulated
// world (voter registries, user population, ad platform with a trained
// delivery-optimization model behind a marketing API) and runs the audit
// methodology to regenerate every table and figure, printing measured values
// next to the paper's published ones.
//
// Usage:
//
//	adaudit run all                  # every artifact, in the order below
//	adaudit run table3               # one artifact
//	adaudit -scale bench run fig7    # smaller, faster world
//	adaudit -csv out/ run privacy    # also write what ran: per-ad CSVs, privacy_sweep.json
//
// Artifacts (the rows of the artifacts table; `adaudit -h` prints them from
// it): table1 table3 fig3 table4a fig4 table4b fig6 fig5 table4c fig1 fig7
// table5 tablea1 fig2 table2 objectives groups lookalike feedback power
// privacy ablations verify.
//
// What the evaluation is — which campaigns, their seeds, what stands on what
// — is core.Evaluation's; an artifact printed alone is byte for byte its
// block of `run all`.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/adaudit/impliedidentity/internal/core"
	"github.com/adaudit/impliedidentity/internal/population"
	"github.com/adaudit/impliedidentity/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "adaudit:", err)
		os.Exit(1)
	}
}

// artifact is one thing `adaudit run` prints: a name and how to render it
// from the evaluation.
type artifact struct {
	name   string
	render func(*core.Evaluation, io.Writer) error
}

// show is the usual render: get a result from the evaluation, format it.
func show[T any](get func(*core.Evaluation) (T, error), format func(T) string) func(*core.Evaluation, io.Writer) error {
	return func(e *core.Evaluation, w io.Writer) error {
		v, err := get(e)
		if err != nil {
			return err
		}
		_, err = io.WriteString(w, format(v))
		return err
	}
}

// artifacts is every artifact, in the order `run all` renders them: the
// paper's order first (Campaigns 1-4, Appendix A), then the extensions.
var artifacts = []artifact{
	{"table1", show((*core.Evaluation).Table1, report.Table1)},
	{"table3", show((*core.Evaluation).Stock, func(r *core.StockResult) string { return report.Table3(r.Table3) })},
	{"fig3", func(e *core.Evaluation, w io.Writer) error {
		r, err := e.Stock()
		if err != nil {
			return err
		}
		_, err = io.WriteString(w, report.Figure3(r.Deliveries, "Figure 3 (stock images)")+
			report.Figure3RaceCI(r.Deliveries, e.BootstrapSeed()))
		return err
	}},
	{"table4a", show((*core.Evaluation).Stock, func(r *core.StockResult) string { return report.Table4(r.Table4, "a") })},
	{"fig4", show((*core.Evaluation).Stock, func(r *core.StockResult) string { return report.Figure4(core.Figure4(r.Deliveries)) })},
	{"table4b", show((*core.Evaluation).StockCapped, func(r *core.StockResult) string { return report.Table4(r.Table4, "b") })},
	{"fig6", show((*core.Evaluation).Synthetic, func(r *core.SyntheticResult) string { return report.Figure6(r.Sweep) })},
	{"fig5", show((*core.Evaluation).Synthetic, func(r *core.SyntheticResult) string {
		return report.Figure3(r.Deliveries, "Figure 5 (synthetic images)")
	})},
	{"table4c", show((*core.Evaluation).Synthetic, func(r *core.SyntheticResult) string { return report.Table4(r.Table4, "c") })},
	{"fig1", show((*core.Evaluation).Figure1, report.Figure1)},
	{"fig7", show((*core.Evaluation).Employment, func(r *core.EmploymentResult) string {
		return report.Figure7(r.RacePanel, r.GenderPanel)
	})},
	{"table5", show((*core.Evaluation).Employment, func(r *core.EmploymentResult) string { return report.Table5(r.Table5) })},
	{"tablea1", show((*core.Evaluation).Poverty, func(r *core.PovertyResult) string {
		return report.PovertySummary(r) + report.TableA1(r.TableA1)
	})},
	{"fig2", show((*core.Evaluation).Validation, report.Figure2Validation)},
	{"table2", show((*core.Evaluation).Table2, report.Table2)},
	{"objectives", show((*core.Evaluation).Objectives, report.Objectives)},
	{"groups", show((*core.Evaluation).GroupPhotos, report.GroupPhotos)},
	{"lookalike", show((*core.Evaluation).Lookalike, report.Lookalike)},
	{"feedback", show((*core.Evaluation).Feedback, report.FeedbackLoop)},
	{"power", func(_ *core.Evaluation, w io.Writer) error {
		table, err := report.Power()
		if err != nil {
			return err
		}
		_, err = io.WriteString(w, table)
		return err
	}},
	{"privacy", show((*core.Evaluation).PrivacySweep, report.PrivacySweep)},
	{"ablations", renderAblations},
	{"verify", func(e *core.Evaluation, w io.Writer) error {
		checks, err := e.Checks()
		if err != nil {
			return err
		}
		fmt.Fprint(w, report.Checklist(checks))
		if !core.AllPass(checks) {
			return fmt.Errorf("shape verification failed")
		}
		return nil
	}},
}

// ablation is one lab of `run ablations`: a LabConfig override on a world of
// its own, what to read from it, and the line that reports it.
type ablation struct {
	group int    // A<group>; the labs of a group share a world seed
	title string // printed above the group's first lab
	label string
	cfg   core.LabConfig
	read  func(l *core.Lab, seed int64) (core.AblationReading, error)
	line  func(label string, r core.AblationReading) string
}

var ablations = []ablation{
	{1, "A1 — delivery optimization off (content-blind auction):", "", core.LabConfig{DisableEAR: true}, stockCampaign(5), report.AblationFit},
	{2, "A2 — engagement-affinity strength sweep:", "affinity ×0.5", core.LabConfig{Behavior: scaledBehavior(0.5)}, stockCampaign(5), report.AblationCoefficient},
	{2, "", "affinity ×1.0", core.LabConfig{Behavior: scaledBehavior(1.0)}, stockCampaign(5), report.AblationCoefficient},
	{2, "", "affinity ×1.5", core.LabConfig{Behavior: scaledBehavior(1.5)}, stockCampaign(5), report.AblationCoefficient},
	{3, "A3 — region granularity (state vs DMA-like travel):", "state-level", core.LabConfig{TravelProb: 0.004}, validation, report.AblationLeakage},
	{3, "", "DMA-level", core.LabConfig{TravelProb: 0.12}, validation, report.AblationLeakage},
	{4, "A4 — reversed-copy aggregation under a location confounder (FL ×1.5 activity):", "", core.LabConfig{FLActivityBoost: 1.5}, validation, report.AblationError},
	{5, "A5 — budget pacing vs greedy spend:", "paced ", core.LabConfig{}, stockCampaign(1), report.AblationSpend},
	{5, "", "greedy", core.LabConfig{GreedyPacing: true}, stockCampaign(1), report.AblationSpend},
}

func stockCampaign(perPerson int) func(*core.Lab, int64) (core.AblationReading, error) {
	return func(l *core.Lab, seed int64) (r core.AblationReading, err error) {
		r.Stock, err = l.RunStockExperiment(core.StockExperimentOptions{Seed: seed, PerPerson: perPerson})
		return r, err
	}
}

func validation(l *core.Lab, seed int64) (r core.AblationReading, err error) {
	r.Validation, err = l.ValidateRaceInference(2, seed)
	return r, err
}

func scaledBehavior(scale float64) population.BehaviorConfig {
	cfg := population.DefaultBehaviorConfig()
	cfg.AffinityScale = scale
	return cfg
}

func renderAblations(e *core.Evaluation, w io.Writer) error {
	for i, a := range ablations {
		if a.title != "" {
			if i > 0 {
				fmt.Fprintln(w)
			}
			fmt.Fprintln(w, a.title)
		}
		r, err := e.Ablate(a.group, a.cfg, a.read)
		if err != nil {
			return err
		}
		fmt.Fprint(w, a.line(a.label, r))
	}
	return nil
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("adaudit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scaleName := fs.String("scale", "full", "simulation scale: test, bench, or full")
	seed := fs.Int64("seed", 1, "master seed for the simulated world")
	csvDir := fs.String("csv", "", "directory to write what ran into: per-ad delivery CSVs, privacy_sweep.json (optional)")
	fs.Usage = func() {
		names := make([]string, len(artifacts))
		for i, a := range artifacts {
			names[i] = a.name
		}
		fmt.Fprintf(stderr, "usage: adaudit [flags] run <artifact>|all\n\nartifacts, in the order `run all` renders them:\n  %s\n\nflags:\n",
			strings.Join(names, " "))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	rest := fs.Args()
	if len(rest) != 2 || rest[0] != "run" {
		return fmt.Errorf("usage: adaudit [flags] run <target>; see -h for targets")
	}
	scale, err := parseScale(*scaleName)
	if err != nil {
		return err
	}
	e := &core.Evaluation{Seed: *seed, Scale: scale, Out: stdout, Err: stderr}
	defer e.Close()
	if err := runTarget(e, strings.ToLower(rest[1]), stdout); err != nil {
		return err
	}
	if *csvDir == "" {
		return nil
	}
	return export(e, *csvDir, stdout)
}

func parseScale(s string) (core.Scale, error) {
	switch s {
	case "test":
		return core.ScaleTest, nil
	case "bench":
		return core.ScaleBench, nil
	case "full":
		return core.ScaleFull, nil
	}
	return 0, fmt.Errorf("unknown scale %q (want test, bench, or full)", s)
}

// runTarget renders one artifact, or all of them with a blank line after each.
func runTarget(e *core.Evaluation, target string, w io.Writer) error {
	for _, a := range artifacts {
		switch target {
		case a.name:
			return a.render(e, w)
		case "all":
			if err := a.render(e, w); err != nil {
				return fmt.Errorf("%s: %w", a.name, err)
			}
			fmt.Fprintln(w)
		}
	}
	if target != "all" {
		return fmt.Errorf("unknown target %q", target)
	}
	return nil
}

// export writes what the evaluation ran into dir: a CSV of per-ad deliveries
// for each campaign, and the privacy sweep as JSON.
func export(e *core.Evaluation, dir string, w io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, body func(io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := body(f); err != nil {
			f.Close()
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", f.Name())
		return f.Close()
	}
	campaigns, sweep := e.Delivered()
	for _, c := range campaigns {
		if err := write(c.Name+".csv", func(f io.Writer) error { return report.DeliveriesCSV(f, c.Deliveries) }); err != nil {
			return err
		}
	}
	if sweep == nil {
		return nil
	}
	return write("privacy_sweep.json", func(f io.Writer) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(sweep)
	})
}
