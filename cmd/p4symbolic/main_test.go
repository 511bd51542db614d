package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"switchv/internal/p4/p4info"
	"switchv/internal/switchsim"
	"switchv/internal/switchv"
	"switchv/internal/symbolic"
	"switchv/internal/workload"
	"switchv/models"
)

// TestMain lets the tests run this test binary as the p4symbolic CLI:
// with P4SYMBOLIC_RUN_MAIN=1 in its environment it runs main instead of
// the tests.
func TestMain(m *testing.M) {
	if os.Getenv("P4SYMBOLIC_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs p4symbolic with args and returns its stdout, stderr and
// exit code.
func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "P4SYMBOLIC_RUN_MAIN=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), stderr.String(), 0
	case errors.As(err, &exit):
		return stdout.String(), stderr.String(), exit.ExitCode()
	}
	t.Fatalf("running p4symbolic %v: %v", args, err)
	return "", "", 0
}

// TestUsageErrors: a -coverage mode other than entries or branches, a
// bad -precheck value and an unknown flag are usage errors, which exit
// 2 before any generation.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-coverage", "branch"},
		{"-coverage", ""},
		{"-precheck", "bogus"},
		{"-dp-workers", "2"},
	} {
		if stdout, stderr, code := runCLI(t, args...); code != 2 || stdout != "" {
			t.Errorf("p4symbolic %v: exit %d, want 2 with no report:\n%s%s", args, code, stdout, stderr)
		}
	}
}

// TestCoverageModes: each accepted -coverage mode runs and is echoed in
// the JSON report.
func TestCoverageModes(t *testing.T) {
	for _, mode := range []string{"entries", "branches"} {
		stdout, stderr, code := runCLI(t, "-entries", "30", "-coverage", mode, "-json")
		if code != 0 {
			t.Fatalf("-coverage %s: exit %d:\n%s", mode, code, stderr)
		}
		var out struct {
			Coverage string `json:"coverage"`
			Packets  int    `json:"packets"`
		}
		if err := json.Unmarshal([]byte(stdout), &out); err != nil {
			t.Fatalf("-coverage %s: %v:\n%s", mode, err, stdout)
		}
		if out.Coverage != mode || out.Packets == 0 {
			t.Errorf("-coverage %s: report says coverage %q with %d packets", mode, out.Coverage, out.Packets)
		}
	}
}

// TestSameGoalsAsRound: p4symbolic solves a data-plane round's goal
// universe, enriched goals included. On the 30 seed-42 middleblock
// entries its report must give the goals, covered goals and SMT checks
// of a RunDataPlane round on the same entries against an in-process
// switch.
func TestSameGoalsAsRound(t *testing.T) {
	stdout, stderr, code := runCLI(t, "-entries", "30", "-json")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr)
	}
	var out struct {
		Report symbolic.Report `json:"report"`
	}
	if err := json.Unmarshal([]byte(stdout), &out); err != nil {
		t.Fatalf("%v:\n%s", err, stdout)
	}

	prog := models.MustLoad("middleblock")
	sw := switchsim.New("middleblock")
	defer sw.Close()
	h := switchv.New(p4info.New(prog), sw, sw)
	if err := h.PushPipeline(); err != nil {
		t.Fatal(err)
	}
	round, err := h.RunDataPlane(workload.MustEntries(prog, 30, 42), switchv.DataPlaneOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, want := out.Report, round.SolverReport
	if got.Goals != want.Goals || got.Covered != want.Covered || got.SMTChecks != want.SMTChecks {
		t.Errorf("p4symbolic: %d goals, %d covered, %d checks; round: %d goals, %d covered, %d checks",
			got.Goals, got.Covered, got.SMTChecks, want.Goals, want.Covered, want.SMTChecks)
	}
}
