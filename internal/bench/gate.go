package bench

import (
	"encoding/json"
	"fmt"
	"os"

	"setlearn/internal/shard"
)

// The benchmark-regression gate compares a fresh experiment run against the
// committed BENCH_*.json baseline and fails on regressions beyond a noise
// tolerance. CI hardware differs from the machine that produced the
// baseline, so the gate judges hardware-independent metrics — speedup
// ratios, relative accuracy, allocation counts — never absolute latency:
// a speedup is a ratio of two measurements on the *same* machine, so it
// transfers across machines; microseconds do not.

// GateViolation is one failed comparison.
type GateViolation struct {
	Point    string  // which benchmark point, e.g. "lsm/k=8" or "shards=4/hash"
	Metric   string  // which metric regressed
	Baseline float64 // committed value
	Fresh    float64 // measured value
	Limit    float64 // the bound the fresh value had to satisfy
}

func (v GateViolation) String() string {
	return fmt.Sprintf("%s: %s = %.4g (baseline %.4g, limit %.4g)",
		v.Point, v.Metric, v.Fresh, v.Baseline, v.Limit)
}

// atLeast records a violation when fresh < limit.
func atLeast(vs []GateViolation, point, metric string, baseline, fresh, limit float64) []GateViolation {
	if fresh < limit {
		vs = append(vs, GateViolation{Point: point, Metric: metric, Baseline: baseline, Fresh: fresh, Limit: limit})
	}
	return vs
}

// atMost records a violation when fresh > limit.
func atMost(vs []GateViolation, point, metric string, baseline, fresh, limit float64) []GateViolation {
	if fresh > limit {
		vs = append(vs, GateViolation{Point: point, Metric: metric, Baseline: baseline, Fresh: fresh, Limit: limit})
	}
	return vs
}

// GateInference compares a fresh inference run against the baseline. For
// every baseline point the fresh run must keep each speedup within (1−tol)
// of the committed value. A baseline point missing from the fresh run
// fails; fresh-only points pass (new configurations are allowed to appear).
// The zero-alloc contract of the serving path is pinned by the deepsets
// allocation tests, not here.
func GateInference(baseline, fresh *InferenceReport, tol float64) []GateViolation {
	var vs []GateViolation
	byKey := map[string]InferencePoint{}
	for _, p := range fresh.Points {
		byKey[fmt.Sprintf("%s/k=%d", p.Config, p.SetSize)] = p
	}
	for _, b := range baseline.Points {
		key := fmt.Sprintf("%s/k=%d", b.Config, b.SetSize)
		f, ok := byKey[key]
		if !ok {
			vs = append(vs, GateViolation{Point: key, Metric: "missing from fresh run"})
			continue
		}
		vs = atLeast(vs, key, "table_speedup", b.TableSpeedup, f.TableSpeedup, b.TableSpeedup*(1-tol))
		vs = atLeast(vs, key, "batch_speedup", b.BatchSpeedup, f.BatchSpeedup, b.BatchSpeedup*(1-tol))
	}
	return vs
}

// errRatioCeiling is the error-aware sharding acceptance bar: a skew-aware
// partition whose committed baseline holds its mean absolute error within
// this factor of the monolith's must keep doing so — the ceiling is
// absolute, not tolerance-scaled, so the headline accuracy claim cannot
// erode by tol per PR.
const errRatioCeiling = 2.0

// skewAware reports whether a sharding point uses one of the skew-aware
// partitioners (freq, cluster) that carry the accuracy-ratio claim.
func skewAware(p ShardingPoint) bool {
	return p.Partitioner == shard.FrequencyBand.String() || p.Partitioner == shard.EmbedCluster.String()
}

// GateSharding compares a fresh sharding run against the baseline: the
// partitioned build must keep its speedup over the monolith, accuracy must
// not drift (mean absolute error is seeded and machine-independent, but
// gets the same tolerance for float-order effects), the batched path must
// stay at least as fast relative to the single-query path, and skew-aware
// points must hold their mean_abs_err / monolith_err ratio — both relative
// to the committed ratio and, where the baseline met it, against the
// absolute errRatioCeiling.
func GateSharding(baseline, fresh *ShardingReport, tol float64) []GateViolation {
	var vs []GateViolation
	byKey := map[string]ShardingPoint{}
	for _, p := range fresh.Points {
		byKey[fmt.Sprintf("shards=%d/%s", p.Shards, p.Partitioner)] = p
	}
	for _, b := range baseline.Points {
		key := fmt.Sprintf("shards=%d/%s", b.Shards, b.Partitioner)
		f, ok := byKey[key]
		if !ok {
			vs = append(vs, GateViolation{Point: key, Metric: "missing from fresh run"})
			continue
		}
		vs = atLeast(vs, key, "build_speedup", b.BuildSpeedup, f.BuildSpeedup, b.BuildSpeedup*(1-tol))
		vs = atMost(vs, key, "mean_abs_err", b.MeanAbsErr, f.MeanAbsErr, b.MeanAbsErr*(1+tol)+0.5)
		if b.SingleUS > 0 && f.SingleUS > 0 {
			baseRatio := b.BatchUS / b.SingleUS
			vs = atMost(vs, key, "batch_vs_single_ratio", baseRatio, f.BatchUS/f.SingleUS, baseRatio*(1+tol))
		}
		if skewAware(b) && baseline.MonolithErr > 0 {
			if fresh.MonolithErr <= 0 {
				vs = append(vs, GateViolation{Point: key, Metric: "monolith_err missing from fresh run"})
				continue
			}
			bRatio := b.MeanAbsErr / baseline.MonolithErr
			fRatio := f.MeanAbsErr / fresh.MonolithErr
			vs = atMost(vs, key, "mean_abs_err_ratio", bRatio, fRatio, bRatio*(1+tol)+0.1)
			if bRatio <= errRatioCeiling {
				vs = atMost(vs, key, "mean_abs_err_ratio_ceiling", bRatio, fRatio, errRatioCeiling)
			}
		}
	}
	return vs
}

// LoadInferenceReport reads a BENCH_inference.json file.
func LoadInferenceReport(path string) (*InferenceReport, error) {
	var r InferenceReport
	if err := loadJSON(path, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// LoadShardingReport reads a BENCH_sharding.json file.
func LoadShardingReport(path string) (*ShardingReport, error) {
	var r ShardingReport
	if err := loadJSON(path, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

func loadJSON(path string, v any) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(blob, v); err != nil {
		return fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return nil
}
