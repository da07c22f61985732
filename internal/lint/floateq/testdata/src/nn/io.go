package nn

// A file at nn/io.go is the blessed float32 persistence boundary: weights
// are written and read at float32 here, so float64↔float32 conversions are
// allowed. The comparison checks still apply.

func encode(dst []float32, src []float64) {
	for i, v := range src {
		dst[i] = float32(v)
	}
}

func decode(dst []float64, src []float32) bool {
	for i, v := range src {
		dst[i] = float64(v)
	}
	return len(dst) > 0 && dst[0] == 1.5 // want `float comparison dst\[0\] == 1.5 is not determinism-safe`
}
