// Package sim stands in for the simulation engine. Its import of the
// serving layer is the seeded DAG violation: layer 40 reaching up to
// layer 80. The import of its own policy subtree is the seeded
// kernel→policy inversion, rejected by rank (40 vs 48): the policy
// subtree has its own table entry above the engine.
package sim

import (
	"fx/internal/serve"      // want depdag "violates the package DAG"
	"fx/internal/sim/policy" // want depdag "violates the package DAG"
)

// Horizon is an engine constant.
const Horizon = 2000

// Bad reaches upward into the serving layer — the violation.
func Bad() float64 { return serve.Translate().HorizonMS }

// BadPolicy reaches into the policy subtree — the kernel must stay
// policy-agnostic.
func BadPolicy() float64 { return policy.Cost }
