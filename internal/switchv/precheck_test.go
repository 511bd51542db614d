package switchv

import (
	"strings"
	"testing"

	"switchv/internal/p4/ir"
	"switchv/internal/p4/p4info"
	"switchv/internal/p4/parser"
	"switchv/internal/p4rt"
)

// defectiveModel carries an error-severity defect (P4C004: default
// action outside the action list), so the preflight gate must refuse
// to launch any campaign over it.
const defectiveModel = `
struct m_t { bit<8> a; }
control c(inout m_t m) {
  action nop() { no_op(); }
  action other() { no_op(); }
  table t {
    key = { m.a : exact; }
    actions = { nop; }
    default_action = other;
  }
  apply { t.apply(); }
}
`

func defectiveInfo(t *testing.T) *p4info.Info {
	t.Helper()
	ast, err := parser.Parse(defectiveModel)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ir.Compile(ast)
	if err != nil {
		t.Fatal(err)
	}
	return p4info.New(prog)
}

// TestPrecheckRefusesDefectiveModel: with the default mode, both
// campaign entry points refuse before touching the switch (the device
// is nil — any contact would panic).
func TestPrecheckRefusesDefectiveModel(t *testing.T) {
	h := New(defectiveInfo(t), nil, nil)
	if _, err := h.RunControlPlane(smallFuzz); err == nil || !strings.Contains(err.Error(), "preflight") {
		t.Errorf("RunControlPlane err = %v, want preflight refusal", err)
	}
	if _, err := h.RunDataPlane(nil, DataPlaneOptions{}); err == nil || !strings.Contains(err.Error(), "P4C004") {
		t.Errorf("RunDataPlane err = %v, want preflight refusal naming P4C004", err)
	}
}

// TestPrecheckWarnOverrides: warn mode reports but never refuses, and
// off mode skips the analysis entirely.
func TestPrecheckWarnOverrides(t *testing.T) {
	h := New(defectiveInfo(t), nil, nil)
	h.Precheck = PrecheckWarn
	rep, err := h.Preflight("p4-fuzzer")
	if err != nil {
		t.Errorf("warn mode refused: %v", err)
	}
	if rep == nil || !rep.HasErrors() {
		t.Errorf("warn mode lost the report: %+v", rep)
	}
	h.Precheck = PrecheckOff
	if rep := h.PrecheckReport(); rep != nil {
		t.Errorf("off mode still analyzed: %+v", rep)
	}
}

// TestParallelCampaignRefusesBeforeBuildingStacks: the gate fires once,
// before any shard stack is built.
func TestParallelCampaignRefusesBeforeBuildingStacks(t *testing.T) {
	built := 0
	_, err := RunParallelCampaign(defectiveInfo(t), ParallelOptions{
		Factory: func(shard int) (p4rt.Device, func(), error) {
			built++
			return nil, nil, nil
		},
		Fuzz: smallFuzz,
	})
	if err == nil || !strings.Contains(err.Error(), "preflight") {
		t.Errorf("err = %v, want preflight refusal", err)
	}
	if built != 0 {
		t.Errorf("factory built %d stacks before the gate fired", built)
	}
}

// TestPrecheckCleanModelLaunches: the gate is invisible on a clean
// model — the standard harness fixture runs a campaign with the
// default (enforcing) mode.
func TestPrecheckCleanModelLaunches(t *testing.T) {
	h, _ := newHarness(t, "middleblock")
	if h.Precheck != PrecheckOn {
		t.Fatalf("default mode = %v, want PrecheckOn", h.Precheck)
	}
	rep, err := h.RunControlPlane(smallFuzz)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Incidents) != 0 {
		t.Errorf("clean run produced incidents: %v", rep.Incidents)
	}
}
