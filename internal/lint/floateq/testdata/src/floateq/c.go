package floateq

// Precision-boundary checks: non-constant float64↔float32 conversions are
// only allowed in blessed kernel files (see blessed32.go).

type half float32

func mixes(a float64, f float32, n int, m meters) {
	_ = float32(a) // want `precision-mixing conversion float32\(a\) outside the blessed boundary file`
	_ = float64(f) // want `precision-mixing conversion float64\(f\) outside the blessed boundary file`
	_ = half(a)    // want `precision-mixing conversion half\(a\) outside the blessed boundary file`
	_ = float32(m) // want `precision-mixing conversion float32\(m\) outside the blessed boundary file`

	_ = float64(n)   // int → float: widening from an integer is exact enough
	_ = float32(n)   // int → float32: not a float↔float mix
	_ = float32(1.5) // constant: converts at compile time
	const c = 0.1
	_ = float32(c)   // constant: same
	_ = float64(a)   // same width: no precision change
	_ = float32(f)   // same width: no precision change
	_ = int(a)       // leaving float entirely is fine
	_ = float32(a)   //lint:allow floateq -- exercising the conversion escape hatch
	_ = (float32)(a) // want `precision-mixing conversion`
}
