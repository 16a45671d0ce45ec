// Package core implements the paper's contribution: the audit methodology.
// It builds balanced target audiences from voter records (Table 1, §3.2),
// implements the region-split race measurement with reversed copies
// (Figure 2, §3.3), runs controlled ad campaigns where only the image
// varies, computes delivery measurements, and drives the regression analyses
// behind Tables 4, 5, and A1.
//
// Everything the auditor does goes through the marketing API over HTTP —
// the same visibility boundary the paper's authors had. The one exception
// is the simulator-only race oracle used by the methodology-validation
// experiment (E11), which is read directly from the platform object and is
// explicitly not part of the advertiser surface.
package core

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/node"
	"github.com/adaudit/impliedidentity/internal/platform"
	"github.com/adaudit/impliedidentity/internal/population"
	"github.com/adaudit/impliedidentity/internal/privacy"
	"github.com/adaudit/impliedidentity/internal/voter"
)

// Scale selects a simulation size preset.
type Scale int

// Scale presets. ScaleTest keeps unit tests fast; ScaleBench sizes the
// benchmark harness; ScaleFull is the CLI default and approaches the
// paper's audience sizes within laptop memory limits.
const (
	ScaleTest Scale = iota
	ScaleBench
	ScaleFull
)

// String names the preset.
func (s Scale) String() string {
	switch s {
	case ScaleTest:
		return "test"
	case ScaleBench:
		return "bench"
	case ScaleFull:
		return "full"
	}
	return fmt.Sprintf("Scale(%d)", int(s))
}

// LabConfig configures the simulated world and the audit's vantage point.
type LabConfig struct {
	Seed  int64
	Scale Scale
	// Behavior overrides the ground-truth engagement model (ablation A2).
	// Zero value means DefaultBehaviorConfig.
	Behavior population.BehaviorConfig
	// UseEAR false disables delivery optimization (ablation A1).
	DisableEAR bool
	// GreedyPacing disables budget pacing (ablation A5).
	GreedyPacing bool
	// TravelProb overrides the out-of-region probability (ablation A3:
	// state-level ≈ 0.004 vs DMA-level ≈ 0.12).
	TravelProb float64
	// FLActivityBoost injects a location confounder (ablation A4).
	FLActivityBoost float64
	// Privacy arms the marketing API's insights privatization (k-anonymity
	// and seeded DP noise) from the first request. The zero value serves raw
	// reports; SetPrivacy switches levels on the live server later, which
	// the skew-detectability sweep uses to re-read one delivered campaign
	// under several policies.
	Privacy privacy.Config
}

// scalePreset is what a preset sizes: the registry per state, the engagement
// log the platform trains on, the stratified-sample cap per cell for audience
// construction, and the faces §5.4's direction fit samples (the paper's
// 50,000 at full).
type scalePreset struct{ votersPerState, trainingRows, perCell, discoverySamples int }

var scalePresets = [...]scalePreset{
	ScaleTest:  {20000, 20000, 250, 2000},
	ScaleBench: {40000, 30000, 400, 10000},
	ScaleFull:  {120000, 60000, 1200, 50000},
}

// preset returns s's row; an unknown scale is sized like ScaleTest.
func (s Scale) preset() scalePreset {
	if s < 0 || int(s) >= len(scalePresets) {
		s = ScaleTest
	}
	return scalePresets[s]
}

// PerCell returns the default stratified-sample cap per cell for audience
// construction at this scale.
func (s Scale) PerCell() int { return s.preset().perCell }

// reduced is the preset side labs (ablations, the feedback loop) run at:
// bench under a full evaluation, so it can afford a dozen of them.
func (s Scale) reduced() Scale {
	if s == ScaleFull {
		return ScaleBench
	}
	return s
}

// Lab is a fully assembled audit environment: synthetic voter registries, a
// user population, a trained platform behind a live HTTP marketing API, and
// the client the audit code uses.
type Lab struct {
	Config LabConfig
	FL, NC *voter.Registry
	Pop    *population.Population
	Client *marketing.Client

	// Platform is the simulator handle. Audit code must not use it except
	// for oracle reads in validation experiments; everything else goes
	// through Client.
	Platform *platform.Platform

	server     *marketing.Server
	httpServer *http.Server
	listener   net.Listener
}

// NewLab builds the world: registries for FL and NC, the population, the
// platform (training its vision and eAR models), and an HTTP server bound
// to a loopback port with a client pointed at it.
func NewLab(cfg LabConfig) (*Lab, error) {
	worldCfg := node.WorldConfig{
		Seed:       cfg.Seed,
		Voters:     cfg.Scale.preset().votersPerState,
		LogRows:    cfg.Scale.preset().trainingRows,
		Population: population.Config{TravelProb: cfg.TravelProb, FLActivityBoost: cfg.FLActivityBoost},
		Behavior:   cfg.Behavior,
	}
	platCfg := worldCfg.PlatformConfig()
	platCfg.UseEAR = !cfg.DisableEAR
	platCfg.GreedyPacing = cfg.GreedyPacing
	platCfg.ReviewRejectProb = 0.0 // experiments set review strictness explicitly
	world, err := worldCfg.Build(platCfg)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	srv, err := marketing.NewServer(world.Platform, marketing.WithPrivacy(cfg.Privacy))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("core: binding marketing API: %w", err)
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		// ErrServerClosed is the normal shutdown path; anything else would
		// surface as client errors in the audit calls.
		_ = httpSrv.Serve(ln)
	}()
	client, err := marketing.NewClient("http://" + ln.Addr().String())
	if err != nil {
		_ = httpSrv.Close()
		return nil, err
	}
	return &Lab{
		Config:     cfg,
		FL:         world.FL,
		NC:         world.NC,
		Pop:        world.Pop,
		Client:     client,
		Platform:   world.Platform,
		server:     srv,
		httpServer: httpSrv,
		listener:   ln,
	}, nil
}

// SetPrivacy switches the live marketing API's insights privatization
// policy. Privatization is response-time and stateless, so delivered
// campaigns can be re-read under a new policy without re-running delivery —
// the skew-detectability sweep delivers once and measures at every level.
func (l *Lab) SetPrivacy(cfg privacy.Config) {
	l.server.SetPrivacy(cfg)
}

// Close shuts down the marketing API server; closing a nil or closed lab
// does nothing.
func (l *Lab) Close() error {
	if l == nil || l.httpServer == nil {
		return nil
	}
	err := l.httpServer.Close()
	l.httpServer = nil
	return err
}

// URL returns the marketing API base URL (useful for external tooling).
func (l *Lab) URL() string {
	return "http://" + l.listener.Addr().String()
}
