package bench

import (
	"strings"
	"testing"
)

func inferenceFixturePoint(speedup float64) InferencePoint {
	return InferencePoint{
		Config: "lsm", SetSize: 8,
		UncachedUS: 12, TableUS: 12 / speedup, BatchTableUS: 12 / speedup,
		TableSpeedup: speedup, BatchSpeedup: speedup,
	}
}

func TestGateInferencePassesWithinTolerance(t *testing.T) {
	base := &InferenceReport{Points: []InferencePoint{inferenceFixturePoint(8)}}
	// 30% slower speedup on a 40% tolerance: no violation.
	fresh := &InferenceReport{Points: []InferencePoint{inferenceFixturePoint(8 * 0.7)}}
	if vs := GateInference(base, fresh, 0.4); len(vs) != 0 {
		t.Fatalf("unexpected violations: %v", vs)
	}
}

func TestGateInferenceCatchesSpeedupRegression(t *testing.T) {
	base := &InferenceReport{Points: []InferencePoint{inferenceFixturePoint(8)}}
	fresh := &InferenceReport{Points: []InferencePoint{inferenceFixturePoint(3)}}
	vs := GateInference(base, fresh, 0.4)
	if len(vs) == 0 {
		t.Fatal("halved speedup must violate")
	}
	found := false
	for _, v := range vs {
		if v.Metric == "table_speedup" && strings.Contains(v.String(), "lsm/k=8") {
			found = true
		}
	}
	if !found {
		t.Fatalf("want table_speedup violation, got %v", vs)
	}
}

func TestGateInferenceMissingPoint(t *testing.T) {
	base := &InferenceReport{Points: []InferencePoint{inferenceFixturePoint(8)}}
	fresh := &InferenceReport{}
	if vs := GateInference(base, fresh, 0.4); len(vs) != 1 || !strings.Contains(vs[0].Metric, "missing") {
		t.Fatalf("want a missing-point violation, got %v", vs)
	}
	// Fresh-only points are allowed: new configurations may appear.
	if vs := GateInference(fresh, base, 0.4); len(vs) != 0 {
		t.Fatalf("fresh-only points must pass, got %v", vs)
	}
}

func shardingFixturePoint(speedup, err float64) ShardingPoint {
	return ShardingPoint{
		Shards: 4, Partitioner: "hash",
		BuildSpeedup: speedup, MeanAbsErr: err, SingleUS: 10, BatchUS: 9,
	}
}

func TestGateSharding(t *testing.T) {
	base := &ShardingReport{Points: []ShardingPoint{shardingFixturePoint(2.7, 2.7)}}
	ok := &ShardingReport{Points: []ShardingPoint{shardingFixturePoint(2.0, 3.0)}}
	if vs := GateSharding(base, ok, 0.4); len(vs) != 0 {
		t.Fatalf("within tolerance must pass, got %v", vs)
	}
	bad := &ShardingReport{Points: []ShardingPoint{shardingFixturePoint(1.2, 9.0)}}
	vs := GateSharding(base, bad, 0.4)
	metrics := map[string]bool{}
	for _, v := range vs {
		metrics[v.Metric] = true
	}
	if !metrics["build_speedup"] || !metrics["mean_abs_err"] {
		t.Fatalf("want build_speedup and mean_abs_err violations, got %v", vs)
	}
}

func skewFixturePoint(err float64) ShardingPoint {
	return ShardingPoint{
		Shards: 8, Partitioner: "freq",
		BuildSpeedup: 3.5, MeanAbsErr: err,
		SingleUS: 10, BatchUS: 9,
	}
}

// TestGateShardingErrRatio pins the accuracy-ratio check on the
// skew-aware points (the ones that used to carry calibrated_err): their
// mean_abs_err / monolith_err must stay within tolerance of the baseline
// ratio and under the absolute ceiling the baseline met.
func TestGateShardingErrRatio(t *testing.T) {
	// Baseline ratio 1.5× the monolith — under the 2× acceptance ceiling.
	// The errors are fractions of one, so the +0.5 absolute slack of the
	// plain mean_abs_err check never fires here.
	base := &ShardingReport{MonolithErr: 0.1, Points: []ShardingPoint{skewFixturePoint(0.15)}}

	// 1.8× is within both the relative tolerance and the absolute ceiling.
	ok := &ShardingReport{MonolithErr: 0.1, Points: []ShardingPoint{skewFixturePoint(0.18)}}
	if vs := GateSharding(base, ok, 0.4); len(vs) != 0 {
		t.Fatalf("ratio under the ceiling must pass, got %v", vs)
	}

	// 2.1× clears the tolerance-scaled relative bound (1.5×1.4+0.1 = 2.2)
	// but breaks the absolute ceiling: the headline accuracy claim must not
	// erode by tol per PR.
	over := &ShardingReport{MonolithErr: 0.1, Points: []ShardingPoint{skewFixturePoint(0.21)}}
	vs := GateSharding(base, over, 0.4)
	if len(vs) != 1 || vs[0].Metric != "mean_abs_err_ratio_ceiling" {
		t.Fatalf("want exactly the ceiling violation, got %v", vs)
	}

	// Way past both bounds: the relative check fires too.
	far := &ShardingReport{MonolithErr: 0.1, Points: []ShardingPoint{skewFixturePoint(0.4)}}
	vs = GateSharding(base, far, 0.4)
	metrics := map[string]bool{}
	for _, v := range vs {
		metrics[v.Metric] = true
	}
	if !metrics["mean_abs_err_ratio"] || !metrics["mean_abs_err_ratio_ceiling"] {
		t.Fatalf("want relative and ceiling violations, got %v", vs)
	}

	// A fresh run without the monolith denominator fails.
	missing := &ShardingReport{Points: []ShardingPoint{skewFixturePoint(0.15)}}
	vs = GateSharding(base, missing, 0.4)
	if len(vs) != 1 || !strings.Contains(vs[0].Metric, "monolith_err missing") {
		t.Fatalf("want a missing-monolith violation, got %v", vs)
	}

	// A baseline over the ceiling never had the claim; only the relative
	// bound applies, so a fresh ratio within tolerance of it passes.
	baseOver := &ShardingReport{MonolithErr: 0.1, Points: []ShardingPoint{skewFixturePoint(0.3)}}
	freshOver := &ShardingReport{MonolithErr: 0.1, Points: []ShardingPoint{skewFixturePoint(0.4)}}
	if vs := GateSharding(baseOver, freshOver, 0.4); len(vs) != 0 {
		t.Fatalf("ceiling must not apply when the baseline never met it, got %v", vs)
	}

	// Hash points carry no ratio claim: the same far-off ratio only meets
	// the plain mean_abs_err check, whose +0.5 slack absorbs it.
	hashBase := &ShardingReport{MonolithErr: 0.1, Points: []ShardingPoint{shardingFixturePoint(2.7, 0.15)}}
	hashFar := &ShardingReport{MonolithErr: 0.1, Points: []ShardingPoint{shardingFixturePoint(2.7, 0.4)}}
	if vs := GateSharding(hashBase, hashFar, 0.4); len(vs) != 0 {
		t.Fatalf("hash points must not get the ratio check, got %v", vs)
	}
}
