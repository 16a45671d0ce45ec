package core

import (
	"math"

	"github.com/adaudit/impliedidentity/internal/demo"
)

// Fig4Point is one x-position of Figure 4: the fraction of men (or women)
// aged 55+ in the actual audience, by the implied age and gender of the
// image.
type Fig4Point struct {
	ImpliedAge   string
	MaleImgMen55 float64 // panel A, blue line
	FemImgMen55  float64 // panel A, orange line
	MaleImgWom55 float64 // panel B, blue line
	FemImgWom55  float64 // panel B, orange line
}

// Figure4 computes the Figure 4 series from stock deliveries.
func Figure4(ds []Delivery) []Fig4Point {
	var out []Fig4Point
	for _, a := range demo.AllImpliedAges() {
		p := Fig4Point{ImpliedAge: a.String()}
		p.MaleImgMen55, _ = GroupMean(ds,
			func(d *Delivery) bool { return d.Profile.Age == a && d.Profile.Gender.String() == "male" },
			func(d *Delivery) float64 { return d.FracMen55Plus })
		p.FemImgMen55, _ = GroupMean(ds,
			func(d *Delivery) bool { return d.Profile.Age == a && d.Profile.Gender.String() == "female" },
			func(d *Delivery) float64 { return d.FracMen55Plus })
		p.MaleImgWom55, _ = GroupMean(ds,
			func(d *Delivery) bool { return d.Profile.Age == a && d.Profile.Gender.String() == "male" },
			func(d *Delivery) float64 { return d.FracWomen55Plus })
		p.FemImgWom55, _ = GroupMean(ds,
			func(d *Delivery) bool { return d.Profile.Age == a && d.Profile.Gender.String() == "female" },
			func(d *Delivery) float64 { return d.FracWomen55Plus })
		out = append(out, p)
	}
	return out
}

// CongruentRaceShare returns the fraction of Figure 7A pairs below the x=y
// line (congruent skew: the Black-face version delivers more to Black
// users).
func CongruentRaceShare(points []Fig7RacePoint) float64 {
	if len(points) == 0 {
		return math.NaN()
	}
	var congruent int
	for _, p := range points {
		if p.BlackImage > p.WhiteImage {
			congruent++
		}
	}
	return float64(congruent) / float64(len(points))
}
