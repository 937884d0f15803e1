// Package policy stands in for the scheduling-policy tree. Its own entry
// (layer 48) sits above the engine, so policy packages may import the
// kernel while the kernel may never import back — the seeded violation
// in internal/sim exercises the rank check.
package policy

import "fx/internal/timeu"

// Cost is a policy constant derived from a leaf utility — a legal
// downward import.
var Cost = timeu.Millis(48)
