// Package core names the paper's scheduling approaches and constructs
// them. The concrete sim.Policy implementations live under
// internal/sim/policy ({static, dynamic, dbp}); core owns the Approach
// enum, the canonical name table behind every flag parser and report, the
// Options alias, and New — one switch from Approach to constructor, the
// only production construction site:
//
//   - MKSS_ST: static R-pattern, main and backup copies of every mandatory
//     job run concurrently without procrastination — the evaluation's
//     energy reference (§V).
//   - MKSS_DP: static R-pattern with the dual-priority/preference-oriented
//     procrastination of Haque et al. [7] and Begam et al. [8] (§III,
//     Figure 1).
//   - Greedy: the §III straw-man — dynamic (m,k) patterns with *all*
//     optional jobs executed greedily on the primary processor (Figure 3).
//   - MKSS_selective: the paper's contribution (Algorithm 1) — dynamic
//     patterns where only optional jobs with flexibility degree 1 are
//     selected, alternating between the processors, with backups postponed
//     by the offline release-postponement intervals θi (§IV).
//   - MKSS_DP-background and MKSS-DBP: extensions beyond the paper (see
//     the constants below).
package core

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/sim/policy"
	"repro/internal/sim/policy/dbp"
	"repro/internal/sim/policy/dynamic"
	"repro/internal/sim/policy/static"
)

// Approach enumerates the schemes compared in Figure 6 (plus the §III
// greedy straw-man used in the motivation and our ablations).
type Approach int

const (
	// ST is MKSS_ST, the static reference.
	ST Approach = iota
	// DP is MKSS_DP, static pattern + dual-priority procrastination.
	DP
	// Greedy is the §III dynamic-pattern straw-man.
	Greedy
	// Selective is MKSS_selective, Algorithm 1.
	Selective
	// DPBackground is an extension beyond the paper: classic dual-
	// priority in which backups also execute in a background band
	// *before* their promotion instant, soaking up idle time. It
	// quantifies how much energy the ALAP-procrastination reading of the
	// DP baseline (which Figure 1's 15-unit schedule confirms) saves
	// over textbook dual-priority.
	DPBackground
	// DBP is distance-based priority, the canonical dynamic (m,k)
	// policy (Hamdaoui & Ramanathan; Goossens arXiv:0805.0200) the paper
	// never compares against: every job is prioritized by its distance
	// to failure, jobs one miss from violation are promoted to
	// standby-sparing mandatory pairs, and nothing is skipped outright.
	DBP
)

// approachNames is the one canonical table behind String, ParseApproach
// and the text (un)marshalers: the canonical report name first, then the
// accepted aliases. Matching is case-insensitive; every cmd/ flag parser
// goes through ParseApproach rather than keeping its own switch. The
// canonical names are the policies' own Name()s; every row needs a case
// in New (TestPolicyNames and FuzzParseApproach check both directions).
var approachNames = []struct {
	a         Approach
	canonical string
	aliases   []string
}{
	{ST, static.NameST, []string{"st"}},
	{DP, static.NameDP, []string{"dp"}},
	{Greedy, dynamic.NameGreedy, []string{"greedy"}},
	{Selective, dynamic.NameSelective, []string{"selective", "sel"}},
	{DPBackground, static.NameDPBackground, []string{"dp-background", "dpbg"}},
	{DBP, dbp.Name, []string{"dbp", "distance"}},
}

func (a Approach) String() string {
	for _, row := range approachNames {
		if row.a == a {
			return row.canonical
		}
	}
	return fmt.Sprintf("Approach(%d)", int(a))
}

// MarshalText renders the canonical name, so Approach round-trips through
// JSON and flag values.
func (a Approach) MarshalText() ([]byte, error) {
	for _, row := range approachNames {
		if row.a == a {
			return []byte(row.canonical), nil
		}
	}
	return nil, fmt.Errorf("core: unknown approach %d", int(a))
}

// UnmarshalText parses an approach name via ParseApproach.
func (a *Approach) UnmarshalText(text []byte) error {
	parsed, err := ParseApproach(string(text))
	if err != nil {
		return err
	}
	*a = parsed
	return nil
}

// ParseApproach maps a name — canonical, alias, or underscore variant, in
// any case — to its Approach. It is the inverse of String.
func ParseApproach(s string) (Approach, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	name = strings.ReplaceAll(name, "_", "-")
	for _, row := range approachNames {
		if name == strings.ToLower(row.canonical) {
			return row.a, nil
		}
		for _, al := range row.aliases {
			if name == al {
				return row.a, nil
			}
		}
	}
	return 0, fmt.Errorf("core: unknown approach %q (want one of %s)", s, strings.Join(ApproachNames(), ", "))
}

// ApproachNames lists the canonical approach names in table order, for
// flag usage strings and error messages.
func ApproachNames() []string {
	out := make([]string, len(approachNames))
	for i, row := range approachNames {
		out[i] = row.canonical
	}
	return out
}

// Approaches lists the paper's approaches in presentation order.
func Approaches() []Approach { return []Approach{ST, DP, Greedy, Selective} }

// Extensions lists the approaches this repository adds beyond the paper.
func Extensions() []Approach { return []Approach{DPBackground, DBP} }

// Options tunes policy construction; the zero value reproduces the paper.
// The struct is defined next to the policies (internal/sim/policy) and
// aliased here so callers construct through one package.
type Options = policy.Options

// New constructs the sim.Policy for an approach. It is the one production
// construction site: the approaches are a closed set, each mapped to its
// constructor here.
func New(a Approach, opts Options) (sim.Policy, error) {
	switch a {
	case ST:
		return static.NewST(opts), nil
	case DP:
		return static.NewDP(opts), nil
	case Greedy:
		return dynamic.NewGreedy(opts), nil
	case Selective:
		return dynamic.NewSelective(opts), nil
	case DPBackground:
		return static.NewDPBackground(opts), nil
	case DBP:
		return dbp.New(opts), nil
	}
	return nil, fmt.Errorf("core: unknown approach %d", int(a))
}
