package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Fixture tests: each directory under testdata/src/ is a tiny module
// (module fx) whose source files carry golden-diagnostic expectations as
// comments:
//
//	code() // want <rule> "substring" [<rule> "substring" ...]
//
// marks diagnostics expected on that line, and
//
//	// want-above <rule> "substring"
//
// marks a diagnostic expected on the line directly above (for lines whose
// trailing-comment slot is already taken by an //mklint: directive).
// Every diagnostic must be expected and every expectation must fire.

type expectation struct {
	rule    string
	substr  string
	matched bool
}

var (
	wantRe   = regexp.MustCompile(`//\s*want(-above)?\s+(.+)$`)
	clauseRe = regexp.MustCompile(`([a-z]+)\s+"([^"]+)"`)
)

// parseWants scans every .go file under root for want comments and
// returns expectations keyed "relpath:line".
func parseWants(t *testing.T, root string) map[string][]*expectation {
	t.Helper()
	wants := make(map[string][]*expectation)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			lineNo := i + 1
			if m[1] == "-above" {
				lineNo--
			}
			clauses := clauseRe.FindAllStringSubmatch(m[2], -1)
			if len(clauses) == 0 {
				return fmt.Errorf("%s:%d: unparsable want comment %q", rel, i+1, line)
			}
			key := fmt.Sprintf("%s:%d", rel, lineNo)
			for _, c := range clauses {
				wants[key] = append(wants[key], &expectation{rule: c[1], substr: c[2]})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

// runFixture loads testdata/src/<name>, runs the given analyzers (nil =
// full registry) and diffs the diagnostics against the want comments.
func runFixture(t *testing.T, name string, analyzers []*Analyzer) {
	t.Helper()
	root := filepath.Join("testdata", "src", name)
	prog, err := Load(root)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	diags := Run(prog, Options{Analyzers: analyzers})
	wants := parseWants(t, root)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.File, d.Line)
		found := false
		for _, e := range wants[key] {
			if !e.matched && e.rule == d.Rule && strings.Contains(d.Message, e.substr) {
				e.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, es := range wants {
		for _, e := range es {
			if !e.matched {
				t.Errorf("missing diagnostic at %s: [%s] with message containing %q", key, e.rule, e.substr)
			}
		}
	}
}

func TestDeterminismFixture(t *testing.T) { runFixture(t, "determinism", []*Analyzer{Determinism}) }
func TestFloatEqFixture(t *testing.T)     { runFixture(t, "floateq", []*Analyzer{FloatEq}) }
func TestCtxFlowFixture(t *testing.T)     { runFixture(t, "ctxflow", []*Analyzer{CtxFlow}) }
func TestHotPathFixture(t *testing.T)     { runFixture(t, "hotpath", []*Analyzer{HotPath}) }
func TestErrDropFixture(t *testing.T)     { runFixture(t, "errdrop", []*Analyzer{ErrDrop}) }
func TestPrintDebugFixture(t *testing.T)  { runFixture(t, "printdebug", []*Analyzer{PrintDebug}) }
func TestHotpropFixture(t *testing.T)     { runFixture(t, "hotprop", []*Analyzer{Hotprop}) }
func TestGoleakFixture(t *testing.T)      { runFixture(t, "goleak", []*Analyzer{Goleak}) }
func TestLocksFixture(t *testing.T)       { runFixture(t, "locks", []*Analyzer{Locks}) }
func TestDepdagFixture(t *testing.T)      { runFixture(t, "depdag", []*Analyzer{Depdag}) }

// TestDepdagSeededViolation pins the acceptance case by name: the
// fixture's internal/sim package imports internal/serve, and the DAG
// table rejects it.
func TestDepdagSeededViolation(t *testing.T) {
	prog, err := Load(filepath.Join("testdata", "src", "depdag"))
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(prog, Options{Analyzers: []*Analyzer{Depdag}})
	for _, d := range diags {
		if d.File == "internal/sim/sim.go" && strings.Contains(d.Message, "violates the package DAG") {
			return
		}
	}
	t.Fatalf("seeded internal/sim → internal/serve import was not rejected; got %v", diags)
}

// TestDepdagStoreDenyEdge pins the store's purity rule: the fixture's
// internal/store package sits above the engine by rank, so only the
// explicit deny edge rejects its import of internal/sim.
func TestDepdagStoreDenyEdge(t *testing.T) {
	prog, err := Load(filepath.Join("testdata", "src", "depdag"))
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(prog, Options{Analyzers: []*Analyzer{Depdag}})
	for _, d := range diags {
		if d.File == "internal/store/store.go" && strings.Contains(d.Message, "must not import fx/internal/sim") {
			return
		}
	}
	t.Fatalf("seeded internal/store → internal/sim import was not rejected; got %v", diags)
}

// TestDepdagPolicyDenyEdge pins the policy subsystem's one-way rule: the
// fixture's internal/sim package imports its own policy subtree and the
// rank table rejects it (engine layer 40 below policy layer 48), while
// the fixture's policy package itself — which sits under internal/sim by
// path — draws no diagnostic, so the rule is one-way rather than a ban
// on the whole subtree.
func TestDepdagPolicyDenyEdge(t *testing.T) {
	prog, err := Load(filepath.Join("testdata", "src", "depdag"))
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(prog, Options{Analyzers: []*Analyzer{Depdag}})
	found := false
	for _, d := range diags {
		if strings.HasPrefix(d.File, "internal/sim/policy/") {
			t.Errorf("policy package drew a diagnostic: %s", d)
		}
		if d.File == "internal/sim/sim.go" && strings.Contains(d.Message, "must not import internal/sim/policy (layer 48") {
			found = true
		}
	}
	if !found {
		t.Fatalf("seeded internal/sim → internal/sim/policy import was not rejected; got %v", diags)
	}
}

// TestAllowMetaFixture runs the full registry so the directive machinery
// itself is exercised: unknown rule names, missing reasons, stale allows
// and unknown verbs are all diagnostics under the reserved "allow" rule.
func TestAllowMetaFixture(t *testing.T) { runFixture(t, "allowmeta", nil) }

func TestSplitAllow(t *testing.T) {
	cases := []struct {
		in           string
		rule, reason string
	}{
		{"determinism — wall-clock timer", "determinism", "wall-clock timer"},
		{"determinism -- wall-clock timer", "determinism", "wall-clock timer"},
		{"determinism - wall-clock timer", "determinism", "wall-clock timer"},
		{"determinism : wall-clock timer", "determinism", "wall-clock timer"},
		{"determinism wall-clock timer", "determinism", "wall-clock timer"},
		{"determinism", "determinism", ""},
		{"", "", ""},
	}
	for _, c := range cases {
		rule, reason := splitAllow(c.in)
		if rule != c.rule || reason != c.reason {
			t.Errorf("splitAllow(%q) = %q, %q; want %q, %q", c.in, rule, reason, c.rule, c.reason)
		}
	}
}

func TestByName(t *testing.T) {
	for _, a := range All() {
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not return the registered analyzer", a.Name)
		}
	}
	if ByName("nosuchrule") != nil {
		t.Error("ByName of an unknown rule should be nil")
	}
}
