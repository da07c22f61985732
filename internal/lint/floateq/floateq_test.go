package floateq_test

import (
	"testing"

	"setlearn/internal/lint/floateq"
	"setlearn/internal/lint/linttest"
)

func TestFloateq(t *testing.T) {
	linttest.Run(t, floateq.Analyzer, "floateq")
}

// TestFloateqPersistenceBoundary: conversions in a file at nn/io.go, the
// float32 weight persistence boundary, are the only ones not flagged.
func TestFloateqPersistenceBoundary(t *testing.T) {
	linttest.Run(t, floateq.Analyzer, "nn")
}

func TestScope(t *testing.T) {
	for _, pkg := range []string{
		"setlearn/internal/mat",
		"setlearn/internal/nn",
		"setlearn/internal/ad",
		"setlearn/internal/deepsets",
		"setlearn/internal/shard",
		"setlearn/internal/bench",
	} {
		if !floateq.Analyzer.InScope(pkg) {
			t.Errorf("floateq should cover %s", pkg)
		}
	}
}
