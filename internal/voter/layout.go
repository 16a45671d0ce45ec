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
	return writeExtract(w, demo.StateFL, "", records, func(bw *bufio.Writer, r *Record, gender string) error {
		race := flRaceOther
		switch r.Race {
		case demo.RaceBlack:
			race = flRaceBlack
		case demo.RaceWhite:
			race = flRaceWhite
		}
		// CountyCode, VoterID, Last, Suffix, First, Middle, Addr1, City,
		// State, Zip, Gender, Race, BirthDate.
		_, err := fmt.Fprintf(bw, "DAD\t%s\t%s\t\t%s\t\t%s\t%s\tFL\t%s\t%s\t%d\t01/01/%04d\n",
			r.ID, r.LastName, r.FirstName, r.Address, r.City, r.ZIP, gender, race, r.BirthYear)
		return err
	})
}

// ParseFL reads records in the Florida extract layout. Records with race
// codes outside the study's White/Black axis are kept with RaceOther; a
// record that fails Validate is refused.
func ParseFL(r io.Reader) ([]Record, error) {
	return parseExtract(r, demo.StateFL, "", 13, func(f []string) (Record, error) {
		raceCode, err := strconv.Atoi(f[11])
		if err != nil {
			return Record{}, fmt.Errorf("race code %q: %v", f[11], err)
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
			return Record{}, err
		}
		birth := f[12]
		if len(birth) != 10 {
			return Record{}, fmt.Errorf("birth date %q", birth)
		}
		year, err := strconv.Atoi(birth[6:])
		if err != nil {
			return Record{}, fmt.Errorf("birth year %q: %v", birth, err)
		}
		return Record{
			ID:        f[1],
			LastName:  f[2],
			FirstName: f[4],
			Address:   f[6],
			City:      f[7],
			ZIP:       f[9],
			Gender:    gender,
			Race:      race,
			BirthYear: year,
		}, nil
	})
}

// ncHeader is the header row of the North Carolina layout (column subset).
const ncHeader = "county_id\tvoter_reg_num\tlast_name\tfirst_name\tres_street_address\tres_city_desc\tstate_cd\tzip_code\trace_code\tgender_code\tbirth_year"

// WriteNC writes records in the North Carolina ncvoter layout.
func WriteNC(w io.Writer, records []Record) error {
	return writeExtract(w, demo.StateNC, ncHeader, records, func(bw *bufio.Writer, r *Record, gender string) error {
		race := "O"
		switch r.Race {
		case demo.RaceBlack:
			race = "B"
		case demo.RaceWhite:
			race = "W"
		}
		_, err := fmt.Fprintf(bw, "92\t%s\t%s\t%s\t%s\t%s\tNC\t%s\t%s\t%s\t%d\n",
			r.ID, r.LastName, r.FirstName, r.Address, r.City, r.ZIP, race, gender, r.BirthYear)
		return err
	})
}

// ParseNC reads records in the North Carolina ncvoter layout; a record that
// fails Validate is refused.
func ParseNC(r io.Reader) ([]Record, error) {
	return parseExtract(r, demo.StateNC, ncHeader, 11, func(f []string) (Record, error) {
		race := demo.RaceOther
		switch f[8] {
		case "B":
			race = demo.RaceBlack
		case "W":
			race = demo.RaceWhite
		}
		gender, err := demo.ParseGender(f[9])
		if err != nil {
			return Record{}, err
		}
		year, err := strconv.Atoi(f[10])
		if err != nil {
			return Record{}, fmt.Errorf("birth year %q: %v", f[10], err)
		}
		return Record{
			ID:        f[1],
			LastName:  f[2],
			FirstName: f[3],
			Address:   f[4],
			City:      f[5],
			ZIP:       f[7],
			Gender:    gender,
			Race:      race,
			BirthYear: year,
		}, nil
	})
}

// writeExtract writes state's records in a layout: its header line, if it
// has one, then a line per record, which row formats from the record and its
// gender code. A record of another state is refused.
func writeExtract(w io.Writer, state demo.State, header string, records []Record, row func(bw *bufio.Writer, r *Record, gender string) error) error {
	bw := bufio.NewWriter(w)
	if header != "" {
		if _, err := fmt.Fprintln(bw, header); err != nil {
			return err
		}
	}
	for i := range records {
		r := &records[i]
		if r.State != state {
			return fmt.Errorf("voter: record %s is %v, not %v", r.ID, r.State, state)
		}
		gender := "U"
		switch r.Gender {
		case demo.GenderMale:
			gender = "M"
		case demo.GenderFemale:
			gender = "F"
		}
		if err := row(bw, r, gender); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// parseExtract reads state's records in a layout: its header line, if it has
// one, must match, blank lines are skipped, and every other line must split
// on tabs into nFields fields, which row maps to a record of the state that
// Validate accepts. An error names the state and the file line.
func parseExtract(r io.Reader, state demo.State, header string, nFields int, row func(f []string) (Record, error)) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	line := 0
	if header != "" {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("voter: %v file empty", state)
		}
		if got := sc.Text(); got != header {
			return nil, fmt.Errorf("voter: %v header mismatch: %q", state, got)
		}
		line++
	}
	var out []Record
	for sc.Scan() {
		line++
		text := sc.Text()
		if strings.TrimSpace(text) == "" {
			continue
		}
		f := strings.Split(text, "\t")
		if len(f) != nFields {
			return nil, fmt.Errorf("voter: %v line %d: %d fields, want %d", state, line, len(f), nFields)
		}
		rec, err := row(f)
		if err == nil {
			rec.State = state
			err = rec.Validate()
		}
		if err != nil {
			return nil, fmt.Errorf("voter: %v line %d: %w", state, line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
