//go:build !amd64

package gan

// matVec is matVecGo: only amd64 has an assembly kernel.
func matVec(out, bias, w, x []float64) { matVecGo(out, bias, w, x) }

// step is stepGo: only amd64 has an assembly kernel.
func (s *sgdState) step(x, next []float64, g sgdGrad, z preact) preact {
	return s.stepGo(x, next, g, z)
}
