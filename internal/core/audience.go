package core

import (
	"context"
	"fmt"
	"math/rand"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/population"
	"github.com/adaudit/impliedidentity/internal/voter"
)

// SplitAudiences holds the two Custom Audiences of the Figure 2 methodology.
// Primary targets white Florida voters plus Black North Carolina voters;
// Reversed targets the opposite assignment. Every ad runs in two copies, one
// per audience, and the analysis aggregates both so location-specific
// confounders cancel (§3.3).
type SplitAudiences struct {
	PrimaryID  string // FL white + NC Black
	ReversedID string // FL Black + NC white
	// Sample sizes per audience side, for Table 1 style reporting.
	PerState int
}

// appendRaceHashes appends the PII hashes an advertiser uploads for the
// records of one race, in sample order. It reads the records in place: a
// sample is tens of thousands of six-string records, and an upload needs only
// their hashes.
func appendRaceHashes(hashes []string, records []voter.Record, race demo.Race) []string {
	for i := range records {
		if r := &records[i]; r.Race == race {
			hashes = append(hashes, population.HashPII(r.FirstName, r.LastName, r.Address, r.ZIP))
		}
	}
	return hashes
}

// BalancedSamples draws one stratified, Table 1-balanced sample from each
// state's registry.
func (l *Lab) BalancedSamples(perCell int, seed int64) (fl, nc []voter.Record) {
	rng := rand.New(rand.NewSource(seed))
	fl = voter.StratifiedSample(l.FL.Records, perCell, rng)
	nc = voter.StratifiedSample(l.NC.Records, perCell, rng)
	return fl, nc
}

// BuildSplitAudiences constructs and uploads the paired race-split Custom
// Audiences from balanced per-state samples (Figure 2). The stratified
// samples guarantee that within each audience the age and gender cells stay
// balanced and that the two race sides are the same size.
func (l *Lab) BuildSplitAudiences(name string, flSample, ncSample []voter.Record) (SplitAudiences, error) {
	if len(flSample) == 0 || len(ncSample) == 0 {
		return SplitAudiences{}, fmt.Errorf("core: empty state samples")
	}
	primaryHashes := appendRaceHashes(nil, flSample, demo.RaceWhite)
	flWhite := len(primaryHashes)
	primaryHashes = appendRaceHashes(primaryHashes, ncSample, demo.RaceBlack)
	ncBlack := len(primaryHashes) - flWhite
	reversedHashes := appendRaceHashes(nil, flSample, demo.RaceBlack)
	flBlack := len(reversedHashes)
	reversedHashes = appendRaceHashes(reversedHashes, ncSample, demo.RaceWhite)
	ncWhite := len(reversedHashes) - flBlack
	if flWhite == 0 || flBlack == 0 || ncWhite == 0 || ncBlack == 0 {
		return SplitAudiences{}, fmt.Errorf("core: a race side is empty (fl %d/%d, nc %d/%d)", flWhite, flBlack, ncWhite, ncBlack)
	}

	primary, err := l.Client.CreateAudience(context.Background(), name+"/FLwhite+NCblack", primaryHashes)
	if err != nil {
		return SplitAudiences{}, fmt.Errorf("core: uploading primary audience: %w", err)
	}
	reversed, err := l.Client.CreateAudience(context.Background(), name+"/FLblack+NCwhite", reversedHashes)
	if err != nil {
		return SplitAudiences{}, fmt.Errorf("core: uploading reversed audience: %w", err)
	}
	if primary.MatchedSize == 0 || reversed.MatchedSize == 0 {
		return SplitAudiences{}, fmt.Errorf("core: audience matched no users (primary %d, reversed %d)",
			primary.MatchedSize, reversed.MatchedSize)
	}
	return SplitAudiences{
		PrimaryID:  primary.ID,
		ReversedID: reversed.ID,
		PerState:   len(flSample),
	}, nil
}

// DefaultSplitAudiences builds the standard audiences at the lab's scale.
func (l *Lab) DefaultSplitAudiences(name string, seed int64) (SplitAudiences, error) {
	fl, nc := l.BalancedSamples(l.Config.Scale.PerCell(), seed)
	return l.BuildSplitAudiences(name, fl, nc)
}

// Table1 reports the stratified sample the way the paper's Table 1 does,
// combining both states (group size is per race×gender cell across both
// states; total is the full audience per age range).
func Table1(flSample, ncSample []voter.Record) []voter.Table1Row {
	combined := append(append([]voter.Record(nil), flSample...), ncSample...)
	return voter.Table1(combined)
}
