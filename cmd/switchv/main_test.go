package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"switchv/internal/p4rt"
	"switchv/internal/switchsim"
)

// TestMain lets the tests run this test binary as the switchv CLI: with
// SWITCHV_RUN_MAIN=1 in its environment it runs main instead of the
// tests.
func TestMain(m *testing.M) {
	if os.Getenv("SWITCHV_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs switchv with args and returns its combined output and
// exit code.
func runCLI(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SWITCHV_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	}
	t.Fatalf("running switchv %v: %v", args, err)
	return "", 0
}

// serveSwitch starts a simulated middleblock switch behind a p4rt
// server on a loopback port and returns its address.
func serveSwitch(t *testing.T) string {
	t.Helper()
	sw := switchsim.New("middleblock")
	srv := p4rt.NewServer(sw, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		sw.Close()
	})
	return addr.String()
}

// TestControlPlaneOnlyAgainstTwoSwitches: a -connect list with -workers
// gives each shard its own switch, and -skip-dataplane runs the
// control-plane campaign alone, mutation table included.
func TestControlPlaneOnlyAgainstTwoSwitches(t *testing.T) {
	connect := serveSwitch(t) + "," + serveSwitch(t)
	out, code := runCLI(t, "-connect", connect, "-workers", "2", "-shards", "2",
		"-skip-dataplane", "-fuzz-requests", "4", "-fuzz-updates", "5")
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, out)
	}
	if n := strings.Count(out, "  shard "); n != 2 {
		t.Errorf("%d shard lines, want 2:\n%s", n, out)
	}
	if !strings.Contains(out, "mutations applied:\n") {
		t.Errorf("no mutation table:\n%s", out)
	}
}

// TestUsageErrors: a bad -precheck value and a -connect list without
// -workers are usage errors, which exit 2.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-precheck", "bogus"},
		{"-connect", "127.0.0.1:1,127.0.0.1:2", "-skip-dataplane"},
	} {
		if out, code := runCLI(t, args...); code != 2 {
			t.Errorf("switchv %v: exit %d, want 2:\n%s", args, code, out)
		}
	}
}
