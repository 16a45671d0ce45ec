package stats

import (
	"reflect"
	"testing"
)

func paperEncoder() *DummyEncoder {
	// The Table 4 encoding: race (ref white), gender (ref male), implied age
	// (ref adult).
	e := &DummyEncoder{}
	e.AddCategorical("race", "white", []string{"Black"})
	e.AddCategorical("gender", "male", []string{"Female"})
	e.AddCategorical("age", "adult", []string{"Child", "Teen", "Middle-aged", "Elderly"})
	return e
}

func TestDummyEncoderColumnNames(t *testing.T) {
	e := paperEncoder()
	want := []string{"Black", "Female", "Child", "Teen", "Middle-aged", "Elderly"}
	if got := e.ColumnNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("ColumnNames = %v", got)
	}
}

func TestDummyEncodeReferenceIsAllZero(t *testing.T) {
	e := paperEncoder()
	row, err := e.Encode(map[string]string{"race": "white", "gender": "male", "age": "adult"})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range row {
		if v != 0 {
			t.Errorf("reference row[%d] = %v", i, v)
		}
	}
}

func TestDummyEncodeLevels(t *testing.T) {
	e := paperEncoder()
	row, err := e.Encode(map[string]string{"race": "Black", "gender": "Female", "age": "Elderly"})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, 0, 0, 0, 1}
	if !reflect.DeepEqual(row, want) {
		t.Errorf("row = %v, want %v", row, want)
	}
}

func TestDummyEncodeErrors(t *testing.T) {
	e := paperEncoder()
	if _, err := e.Encode(map[string]string{"race": "Black", "gender": "Female"}); err == nil {
		t.Error("missing variable: want error")
	}
	if _, err := e.Encode(map[string]string{"race": "green", "gender": "male", "age": "adult"}); err == nil {
		t.Error("unknown level: want error")
	}
	if _, err := e.EncodeAll(nil); err == nil {
		t.Error("empty observations: want error")
	}
}

func TestEncodeAllShape(t *testing.T) {
	e := paperEncoder()
	obs := []map[string]string{
		{"race": "white", "gender": "male", "age": "adult"},
		{"race": "Black", "gender": "Female", "age": "Child"},
	}
	m, err := e.EncodeAll(obs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 2 || m.Cols != 6 {
		t.Errorf("shape %dx%d", m.Rows, m.Cols)
	}
	if m.At(1, 0) != 1 || m.At(1, 2) != 1 {
		t.Errorf("second row = %v", m.Row(1))
	}
}

func TestDummyRegressionIntegration(t *testing.T) {
	// End-to-end: encode a categorical design and verify OLS reads group
	// means through the dummy coding. y = 1 (ref), 3 (level L).
	e := &DummyEncoder{}
	e.AddCategorical("g", "ref", []string{"L"})
	var obs []map[string]string
	var y []float64
	for i := 0; i < 30; i++ {
		if i%2 == 0 {
			obs = append(obs, map[string]string{"g": "ref"})
			y = append(y, 1)
		} else {
			obs = append(obs, map[string]string{"g": "L"})
			y = append(y, 3)
		}
	}
	x, err := e.EncodeAll(obs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := OLS(e.ColumnNames(), x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.Coef[0], 1, 1e-9) {
		t.Errorf("intercept = %v, want 1 (reference mean)", res.Coef[0])
	}
	if c, _ := res.Coefficient("L"); !almostEqual(c, 2, 1e-9) {
		t.Errorf("L coefficient = %v, want 2 (difference from reference)", c)
	}
}
