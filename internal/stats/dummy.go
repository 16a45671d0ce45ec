package stats

import "fmt"

// DummyEncoder builds regression design matrices from categorical variables
// using dummy (reference-level) encoding: a categorical with N levels becomes
// N−1 binary columns, with the reference level represented by all-zeros and
// absorbed into the intercept. This is the encoding the paper uses
// (footnote 6): in Table 4a the intercept is "white adult male" because
// white, male, and adult are the reference levels.
type DummyEncoder struct {
	vars []dummyVar
}

type dummyVar struct {
	name      string
	reference string
	levels    []string // non-reference levels, in declaration order
}

// AddCategorical declares a categorical variable with an explicit reference
// level. levels must not contain the reference. Column names are the bare
// level names, matching the paper's table rows ("Black", "Female", "Child").
func (e *DummyEncoder) AddCategorical(name, reference string, levels []string) {
	e.vars = append(e.vars, dummyVar{name: name, reference: reference, levels: append([]string(nil), levels...)})
}

// ColumnNames returns the names of the encoded columns in order.
func (e *DummyEncoder) ColumnNames() []string {
	var out []string
	for _, v := range e.vars {
		out = append(out, v.levels...)
	}
	return out
}

// Encode converts one observation — a map from variable name to level — into
// a design-matrix row. Unknown levels are an error; the reference level
// encodes to all zeros for its variable.
func (e *DummyEncoder) Encode(obs map[string]string) ([]float64, error) {
	row := make([]float64, 0, len(e.ColumnNames()))
	for _, v := range e.vars {
		level, ok := obs[v.name]
		if !ok {
			return nil, fmt.Errorf("stats: observation missing variable %q", v.name)
		}
		found := level == v.reference
		for _, l := range v.levels {
			if l == level {
				row = append(row, 1)
				found = true
			} else {
				row = append(row, 0)
			}
		}
		if !found {
			return nil, fmt.Errorf("stats: variable %q has unknown level %q", v.name, level)
		}
	}
	return row, nil
}

// EncodeAll converts a slice of observations into a design matrix.
func (e *DummyEncoder) EncodeAll(obs []map[string]string) (*Matrix, error) {
	if len(obs) == 0 {
		return nil, fmt.Errorf("stats: no observations")
	}
	rows := make([][]float64, len(obs))
	for i, o := range obs {
		r, err := e.Encode(o)
		if err != nil {
			return nil, fmt.Errorf("observation %d: %w", i, err)
		}
		rows[i] = r
	}
	return MatrixFromRows(rows)
}
