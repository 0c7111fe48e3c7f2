package pipeline

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/stats"
)

// Training campaigns: a simulated run plus the statistical training
// dynamics the evaluation needs, the Fig. 9 accuracy curves.
//
// Section 5.4's point is that Lobster "does not change the randomness of
// data accessing during the distributed training", so accuracy as a
// function of *epochs* is loader-independent (modulo seed noise), while
// accuracy as a function of *wall time* improves exactly by the loader's
// speedup. The accuracy model here encodes that: a saturating convergence
// curve anchored at the model's published target accuracy and convergence
// epoch, with small seed-dependent noise — combined with the simulator's
// per-epoch virtual times.

// AccuracyPoint is one epoch of a training curve.
type AccuracyPoint struct {
	Epoch    int
	Time     float64 // virtual seconds since training start
	Accuracy float64 // top-1 validation accuracy in [0, 1]
}

// Campaign is the result of one end-to-end training run.
type Campaign struct {
	Result *Result
	Curve  []AccuracyPoint
}

// AccuracyCurve returns the epoch-indexed accuracy trajectory of a model.
// It is a saturating exponential a(e) = target*(1-exp(-k*e)) with k chosen
// so the curve reaches 99% of the target at the model's published
// convergence epoch, plus seed-dependent noise that shrinks as training
// converges (mirroring the "slight variation due to different random
// seeds" of Fig. 9).
func AccuracyCurve(model cluster.DNNModel, epochs int, seed uint64) []float64 {
	if epochs <= 0 {
		return nil
	}
	k := -math.Log(0.01) / float64(model.ConvergeEpochs)
	rng := stats.NewRNG(stats.DeriveSeed(seed, 0xacc))
	curve := make([]float64, epochs)
	for e := 0; e < epochs; e++ {
		base := model.TargetAccuracy * (1 - math.Exp(-k*float64(e+1)))
		noise := rng.NormFloat64() * 0.01 * math.Exp(-float64(e)/float64(model.ConvergeEpochs))
		a := base + noise
		if a < 0 {
			a = 0
		}
		if a > 1 {
			a = 1
		}
		curve[e] = a
	}
	return curve
}

// Train runs the simulation and attaches the accuracy curve. The accuracy
// seed is derived from the schedule seed only — NOT from the loading
// strategy — so two strategies over the same schedule produce the same
// learning curve, which is precisely the Fig. 9 claim.
func Train(cfg Config) (*Campaign, error) {
	res, err := Run(cfg)
	if err != nil {
		return nil, err
	}
	acc := AccuracyCurve(cfg.Model, cfg.Epochs, cfg.Seed)
	if len(res.EpochEndTimes) != len(acc) {
		return nil, fmt.Errorf("pipeline: %d epoch times vs %d accuracy points",
			len(res.EpochEndTimes), len(acc))
	}
	curve := make([]AccuracyPoint, len(acc))
	for e := range acc {
		curve[e] = AccuracyPoint{Epoch: e + 1, Time: res.EpochEndTimes[e], Accuracy: acc[e]}
	}
	return &Campaign{Result: res, Curve: curve}, nil
}

// FinalAccuracy returns the last point's accuracy, or 0 for an empty curve.
func (c *Campaign) FinalAccuracy() float64 {
	if len(c.Curve) == 0 {
		return 0
	}
	return c.Curve[len(c.Curve)-1].Accuracy
}

// TimeToAccuracy returns the virtual time at which the campaign first
// reached the threshold accuracy, or -1 if it never did. This is the
// quantity that improves under a faster loader even though the per-epoch
// curve does not.
func (c *Campaign) TimeToAccuracy(threshold float64) float64 {
	for _, p := range c.Curve {
		if p.Accuracy >= threshold {
			return p.Time
		}
	}
	return -1
}
