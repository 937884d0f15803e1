package repro

import (
	"os"
	"os/exec"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// benchstatInstall is the one workflow step that is not a ci.sh job: the
// perf job's optional benchstat comparison needs it on the runner.
const benchstatInstall = "go install golang.org/x/perf/cmd/benchstat@latest || true"

var (
	runStep    = regexp.MustCompile(`(?m)^\s*(?:-\s+)?run:\s*(.*?)\s*$`)
	ciJobRun   = regexp.MustCompile(`^scripts/ci\.sh (\$\{\{ matrix\.job \}\}|[a-z][a-z-]*)$`)
	matrixJob  = regexp.MustCompile(`(?s)\bjob:\s*\[([^\]]*)\]`)
	includeJob = regexp.MustCompile(`(?m)^\s*(?:-\s+)?job:\s*([a-z][a-z-]*)\s*$`)
	jobFunc    = regexp.MustCompile(`(?m)^job-([a-z][a-z-]*)\(\)\s*\{`)
	allJobs    = regexp.MustCompile(`(?s)\nall_jobs=\(([^)]*)\)`)
)

// TestCIWorkflowRunsOnlyCIScript keeps scripts/ci.sh the only place CI
// checks are defined: every workflow step runs `scripts/ci.sh <job>` (or
// the benchstat install), the jobs the workflow invokes are exactly the
// job functions ci.sh defines, ci.sh's no-argument job list names each
// of them once, and the script parses.
func TestCIWorkflowRunsOnlyCIScript(t *testing.T) {
	yml, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	script, err := os.ReadFile("scripts/ci.sh")
	if err != nil {
		t.Fatal(err)
	}

	invoked := map[string]bool{}
	for _, m := range runStep.FindAllStringSubmatch(string(yml), -1) {
		run := m[1]
		if run == benchstatInstall {
			continue
		}
		job := ciJobRun.FindStringSubmatch(run)
		if job == nil {
			t.Errorf("ci.yml step runs %q; put the check in a scripts/ci.sh job and run `scripts/ci.sh <job>`", run)
			continue
		}
		if job[1] != "${{ matrix.job }}" {
			invoked[job[1]] = true
			continue
		}
		for _, list := range matrixJob.FindAllStringSubmatch(string(yml), -1) {
			for _, name := range strings.Split(list[1], ",") {
				invoked[strings.TrimSpace(name)] = true
			}
		}
		for _, one := range includeJob.FindAllStringSubmatch(string(yml), -1) {
			invoked[one[1]] = true
		}
	}

	var defined []string
	for _, m := range jobFunc.FindAllStringSubmatch(string(script), -1) {
		defined = append(defined, m[1])
	}
	if got, want := sortedKeys(invoked), sortedCopy(defined); !reflect.DeepEqual(got, want) {
		t.Errorf("ci.yml invokes jobs %v, scripts/ci.sh defines job functions %v", got, want)
	}

	list := allJobs.FindStringSubmatch(string(script))
	if list == nil {
		t.Fatal("scripts/ci.sh has no all_jobs=(...) list")
	}
	if got, want := sortedCopy(strings.Fields(list[1])), sortedCopy(defined); !reflect.DeepEqual(got, want) {
		t.Errorf("ci.sh all_jobs %v, want each job function once: %v", got, want)
	}

	if out, err := exec.Command("bash", "-n", "scripts/ci.sh").CombinedOutput(); err != nil {
		t.Errorf("bash -n scripts/ci.sh: %v\n%s", err, out)
	}
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedCopy(s []string) []string {
	c := append([]string(nil), s...)
	sort.Strings(c)
	return c
}
