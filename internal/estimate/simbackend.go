package estimate

import (
	"context"

	"repro"
)

// SimBackend is the empirical estimator: an adapter that runs the real
// discrete-event simulation through the shared session and repackages
// its result as an Answer. It exists so callers can swap exactness for
// latency behind one interface — and so the cross-validation tests can
// drive both backends through the same code path.
type SimBackend struct {
	runner *repro.Runner
}

// NewSim builds the empirical backend around a session.
func NewSim(r *repro.Runner) *SimBackend { return &SimBackend{runner: r} }

func (b *SimBackend) Name() string { return "sim" }
func (b *SimBackend) Exact() bool  { return true }

// Estimate runs the simulation the request describes.
func (b *SimBackend) Estimate(ctx context.Context, req Request) (*Answer, error) {
	res, err := b.runner.Simulate(ctx, req.Set, req.Approach, repro.RunConfig{
		HorizonMS:     req.HorizonMS,
		Scenario:      req.Scenario,
		Seed:          req.Seed,
		TransientRate: req.TransientRate,
		Power:         req.Power,
	})
	if err != nil {
		return nil, err
	}
	return &Answer{
		Backend:      b.Name(),
		Policy:       res.Policy,
		Horizon:      res.Horizon,
		Schedulable:  b.runner.Analysis(req.Set).Schedulable(),
		ActiveEnergy: res.ActiveEnergy(),
		TotalEnergy:  res.TotalEnergy(),
		MKPredicted:  res.MKSatisfied(),
		Exact:        true,
	}, nil
}
