// Package fmafixture holds the multiply-add shape that `make fma-check`
// must catch: every architecture the check covers fuses MulAdd into one
// instruction. It sits under testdata/, so ./... skips it and the check
// builds it by path.
package fmafixture

// MulAdd returns x*y + z, which a fusing compiler rounds once.
func MulAdd(x, y, z float64) float64 {
	return x*y + z
}

// MulAdd32 is MulAdd in single precision.
func MulAdd32(x, y, z float32) float32 {
	return x*y + z
}
