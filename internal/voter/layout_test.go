package voter

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"github.com/adaudit/impliedidentity/internal/demo"
)

func TestFLRoundTrip(t *testing.T) {
	reg := testRegistry(t, demo.StateFL, 200)
	var buf bytes.Buffer
	if err := WriteFL(&buf, reg.Records); err != nil {
		t.Fatal(err)
	}
	got, err := ParseFL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reg.Records) {
		t.Fatalf("parsed %d, want %d", len(got), len(reg.Records))
	}
	for i, want := range reg.Records {
		if got[i] != want {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], want)
		}
	}
}

func TestNCRoundTrip(t *testing.T) {
	reg := testRegistry(t, demo.StateNC, 200)
	var buf bytes.Buffer
	if err := WriteNC(&buf, reg.Records); err != nil {
		t.Fatal(err)
	}
	got, err := ParseNC(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reg.Records) {
		t.Fatalf("parsed %d, want %d", len(got), len(reg.Records))
	}
	for i, want := range reg.Records {
		if got[i] != want {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], want)
		}
	}
}

func TestWriteFLRejectsWrongState(t *testing.T) {
	rec := Record{ID: "NC1", State: demo.StateNC, ZIP: "27000", BirthYear: 1980}
	if err := WriteFL(&bytes.Buffer{}, []Record{rec}); err == nil {
		t.Error("NC record in FL writer: want error")
	}
	rec.State = demo.StateFL
	if err := WriteNC(&bytes.Buffer{}, []Record{rec}); err == nil {
		t.Error("FL record in NC writer: want error")
	}
}

func TestParseFLMalformed(t *testing.T) {
	cases := []string{
		"too\tfew\tfields\n",
		"DAD\tFL1\tSmith\t\tJohn\t\t1 Oak St\tMiami\tFL\t33101\tM\tnotanumber\t01/01/1980\n",
		"DAD\tFL1\tSmith\t\tJohn\t\t1 Oak St\tMiami\tFL\t33101\tM\t5\t1980\n",       // short birth date
		"DAD\tFL1\tSmith\t\tJohn\t\t1 Oak St\tMiami\tFL\t33101\tX\t5\t01/01/1980\n", // bad gender
	}
	for i, c := range cases {
		if _, err := ParseFL(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: want parse error", i)
		}
	}
	// Blank lines are tolerated.
	recs, err := ParseFL(strings.NewReader("\n\n"))
	if err != nil || len(recs) != 0 {
		t.Errorf("blank-only input: %v, %d records", err, len(recs))
	}
}

func TestParseFLUnknownRaceCode(t *testing.T) {
	line := "DAD\tFL1\tSmith\t\tJohn\t\t1 Oak St\tMiami\tFL\t33101\tM\t4\t01/01/1980\n"
	recs, err := ParseFL(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Race != demo.RaceOther {
		t.Errorf("race code 4 should map to other, got %v", recs[0].Race)
	}
}

func TestParseNCMalformed(t *testing.T) {
	if _, err := ParseNC(strings.NewReader("")); err == nil {
		t.Error("empty file: want error")
	}
	if _, err := ParseNC(strings.NewReader("wrong header\n")); err == nil {
		t.Error("bad header: want error")
	}
	bad := ncHeader + "\n92\tNC1\tSmith\n"
	if _, err := ParseNC(strings.NewReader(bad)); err == nil {
		t.Error("short row: want error")
	}
	badYear := ncHeader + "\n92\tNC1\tSmith\tJohn\t1 Oak St\tRaleigh\tNC\t27000\tW\tM\tnope\n"
	if _, err := ParseNC(strings.NewReader(badYear)); err == nil {
		t.Error("bad year: want error")
	}
}

// TestParseRefusesInvalidRecords: a line that parses but fails one of
// Record.Validate's checks is refused, naming its line. The state check
// cannot fail here: each parser sets the state of its own layout.
func TestParseRefusesInvalidRecords(t *testing.T) {
	fl := func(id, zip, year string) string {
		return "DAD\tFL0\tSmith\t\tJohn\t\t1 Oak St\tMiami\tFL\t33101\tM\t5\t01/01/1980\n" +
			"DAD\t" + id + "\tSmith\t\tJohn\t\t1 Oak St\tMiami\tFL\t" + zip + "\tM\t5\t01/01/" + year + "\n"
	}
	nc := func(id, zip, year string) string {
		return ncHeader + "\n" +
			"92\tNC0\tSmith\tJohn\t1 Oak St\tRaleigh\tNC\t27000\tW\tM\t1980\n" +
			"92\t" + id + "\tSmith\tJohn\t1 Oak St\tRaleigh\tNC\t" + zip + "\tW\tM\t" + year + "\n"
	}
	for _, tc := range []struct {
		check, id, zip, year, want string
	}{
		{"empty ID", "", "33101", "1980", "record missing ID"},
		{"age 10", "V1", "33101", "2012", "implausible age 10"},
		{"age 121", "V1", "33101", "1901", "implausible age 121"},
		{"4-digit ZIP", "V1", "3310", "1980", `malformed ZIP "3310"`},
	} {
		for _, layout := range []struct {
			name, text, line string // line: the bad record's line in the file
			parse            func(io.Reader) ([]Record, error)
		}{
			{"FL", fl(tc.id, tc.zip, tc.year), "2", ParseFL},
			{"NC", nc(tc.id, tc.zip, tc.year), "3", ParseNC},
		} {
			recs, err := layout.parse(strings.NewReader(layout.text))
			want := "voter: " + layout.name + " line " + layout.line + ": "
			if err == nil || !strings.HasPrefix(err.Error(), want) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s, %s: got %d records, error %v; want an error starting %q and containing %q",
					layout.name, tc.check, len(recs), err, want, tc.want)
			}
		}
	}
}

func TestLayoutRoundTripProperty(t *testing.T) {
	// Property: any generated registry round-trips through its state's
	// extract format unchanged.
	f := func(seed int64) bool {
		state := demo.StateFL
		write, parse := WriteFL, ParseFL
		if seed%2 == 0 {
			state = demo.StateNC
			write, parse = WriteNC, ParseNC
		}
		cfg := DefaultGeneratorConfig(state, seed)
		cfg.NumVoters = 40
		reg, err := Generate(cfg)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := write(&buf, reg.Records); err != nil {
			return false
		}
		got, err := parse(&buf)
		if err != nil || len(got) != len(reg.Records) {
			return false
		}
		for i := range got {
			if got[i] != reg.Records[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
