package voter

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/adaudit/impliedidentity/internal/demo"
)

// This file implements readers and writers for the two public voter-extract
// formats the paper uses as ground truth (§3.3, refs [31] and [51]). Both are
// tab-delimited; they differ in header convention, column order, and coding:
//
//   - Florida ("Voter Extract Disk File"): no header row; race is a numeric
//     census code (3 = Black not Hispanic, 5 = White not Hispanic); birth
//     date as MM/DD/YYYY.
//   - North Carolina ("ncvoter"): header row; race_code is a letter (B, W,
//     O); birth_year as a bare year.
//
// The synthetic generator emits these same formats so the parsing code path
// matches what an audit against the real files would run.

// Florida race codes (subset relevant to the study).
const (
	flRaceBlack = 3
	flRaceWhite = 5
	flRaceOther = 9
)

// WriteFL writes records in the Florida extract layout.
func WriteFL(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	for i := range records {
		r := &records[i]
		if r.State != demo.StateFL {
			return fmt.Errorf("voter: record %s is %v, not FL", r.ID, r.State)
		}
		race := flRaceOther
		switch r.Race {
		case demo.RaceBlack:
			race = flRaceBlack
		case demo.RaceWhite:
			race = flRaceWhite
		}
		gender := "U"
		switch r.Gender {
		case demo.GenderMale:
			gender = "M"
		case demo.GenderFemale:
			gender = "F"
		}
		// CountyCode, VoterID, Last, Suffix, First, Middle, Addr1, City,
		// State, Zip, Gender, Race, BirthDate.
		_, err := fmt.Fprintf(bw, "DAD\t%s\t%s\t\t%s\t\t%s\t%s\tFL\t%s\t%s\t%d\t01/01/%04d\n",
			r.ID, r.LastName, r.FirstName, r.Address, r.City, r.ZIP, gender, race, r.BirthYear)
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseFL reads records in the Florida extract layout. Records with race
// codes outside the study's White/Black axis are kept with RaceOther; a
// record that fails Validate is refused.
func ParseFL(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	var out []Record
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if strings.TrimSpace(text) == "" {
			continue
		}
		f := strings.Split(text, "\t")
		if len(f) != 13 {
			return nil, fmt.Errorf("voter: FL line %d: %d fields, want 13", line, len(f))
		}
		raceCode, err := strconv.Atoi(f[11])
		if err != nil {
			return nil, fmt.Errorf("voter: FL line %d: race code %q: %v", line, f[11], err)
		}
		race := demo.RaceOther
		switch raceCode {
		case flRaceBlack:
			race = demo.RaceBlack
		case flRaceWhite:
			race = demo.RaceWhite
		}
		gender, err := demo.ParseGender(f[10])
		if err != nil {
			return nil, fmt.Errorf("voter: FL line %d: %v", line, err)
		}
		birth := f[12]
		if len(birth) != 10 {
			return nil, fmt.Errorf("voter: FL line %d: birth date %q", line, birth)
		}
		year, err := strconv.Atoi(birth[6:])
		if err != nil {
			return nil, fmt.Errorf("voter: FL line %d: birth year %q: %v", line, birth, err)
		}
		rec := Record{
			ID:        f[1],
			LastName:  f[2],
			FirstName: f[4],
			Address:   f[6],
			City:      f[7],
			State:     demo.StateFL,
			ZIP:       f[9],
			Gender:    gender,
			Race:      race,
			BirthYear: year,
		}
		if err := rec.Validate(); err != nil {
			return nil, fmt.Errorf("voter: FL line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ncHeader is the header row of the North Carolina layout (column subset).
const ncHeader = "county_id\tvoter_reg_num\tlast_name\tfirst_name\tres_street_address\tres_city_desc\tstate_cd\tzip_code\trace_code\tgender_code\tbirth_year"

// WriteNC writes records in the North Carolina ncvoter layout.
func WriteNC(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, ncHeader); err != nil {
		return err
	}
	for i := range records {
		r := &records[i]
		if r.State != demo.StateNC {
			return fmt.Errorf("voter: record %s is %v, not NC", r.ID, r.State)
		}
		race := "O"
		switch r.Race {
		case demo.RaceBlack:
			race = "B"
		case demo.RaceWhite:
			race = "W"
		}
		gender := "U"
		switch r.Gender {
		case demo.GenderMale:
			gender = "M"
		case demo.GenderFemale:
			gender = "F"
		}
		_, err := fmt.Fprintf(bw, "92\t%s\t%s\t%s\t%s\t%s\tNC\t%s\t%s\t%s\t%d\n",
			r.ID, r.LastName, r.FirstName, r.Address, r.City, r.ZIP, race, gender, r.BirthYear)
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseNC reads records in the North Carolina ncvoter layout; a record that
// fails Validate is refused.
func ParseNC(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("voter: NC file empty")
	}
	if got := sc.Text(); got != ncHeader {
		return nil, fmt.Errorf("voter: NC header mismatch: %q", got)
	}
	var out []Record
	line := 1
	for sc.Scan() {
		line++
		text := sc.Text()
		if strings.TrimSpace(text) == "" {
			continue
		}
		f := strings.Split(text, "\t")
		if len(f) != 11 {
			return nil, fmt.Errorf("voter: NC line %d: %d fields, want 11", line, len(f))
		}
		race := demo.RaceOther
		switch f[8] {
		case "B":
			race = demo.RaceBlack
		case "W":
			race = demo.RaceWhite
		}
		gender, err := demo.ParseGender(f[9])
		if err != nil {
			return nil, fmt.Errorf("voter: NC line %d: %v", line, err)
		}
		year, err := strconv.Atoi(f[10])
		if err != nil {
			return nil, fmt.Errorf("voter: NC line %d: birth year %q: %v", line, f[10], err)
		}
		rec := Record{
			ID:        f[1],
			LastName:  f[2],
			FirstName: f[3],
			Address:   f[4],
			City:      f[5],
			State:     demo.StateNC,
			ZIP:       f[7],
			Gender:    gender,
			Race:      race,
			BirthYear: year,
		}
		if err := rec.Validate(); err != nil {
			return nil, fmt.Errorf("voter: NC line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
