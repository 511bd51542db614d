// Command daemonsmoke is the end-to-end smoke test for the daemon
// deployment (wired into `make daemon-smoke` / `make ci`): it builds
// switchd and switchvd, boots a switchd with a seeded fault, points a
// one-target switchvd fleet at it, and asserts — through the daemon's
// HTTP API, the same way an operator would — that the round completes
// and the injected fault surfaces as a fleet incident record.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

const fault = "p4rt.read-drops-ternary"

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "daemonsmoke: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("daemonsmoke: PASS")
}

func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// proc wraps a child process whose output is captured for failure
// reports and which is killed (whole process group) on cleanup.
type proc struct {
	cmd *exec.Cmd
	out strings.Builder
}

func start(name string, args ...string) (*proc, error) {
	p := &proc{cmd: exec.Command(name, args...)}
	p.cmd.Stdout = &p.out
	p.cmd.Stderr = &p.out
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *proc) kill() {
	if p.cmd.Process != nil {
		syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
		p.cmd.Wait()
	}
}

func run() error {
	deadline := time.Now().Add(4 * time.Minute)
	tmp, err := os.MkdirTemp("", "daemonsmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	// Build the two binaries once; `go run` would put the actual server
	// in a grandchild process that outlives a plain kill.
	switchd := filepath.Join(tmp, "switchd")
	switchvd := filepath.Join(tmp, "switchvd")
	for bin, pkg := range map[string]string{switchd: "./cmd/switchd", switchvd: "./cmd/switchvd"} {
		build := exec.Command("go", "build", "-o", bin, pkg)
		if out, err := build.CombinedOutput(); err != nil {
			return fmt.Errorf("building %s: %v\n%s", pkg, err, out)
		}
	}

	swAddr, err := freePort()
	if err != nil {
		return err
	}
	apiAddr, err := freePort()
	if err != nil {
		return err
	}

	// The switch under test, with a known control-plane fault.
	sw, err := start(switchd, "-listen", swAddr, "-role", "middleblock", "-fault", fault)
	if err != nil {
		return err
	}
	defer sw.kill()
	if err := waitTCP(swAddr, deadline); err != nil {
		return fmt.Errorf("switchd never came up: %v\n%s", err, sw.out.String())
	}

	// The daemon: unbounded rounds with a long interval, so the API
	// stays up for the assertions below; stopped with SIGTERM after.
	vd, err := start(switchvd,
		"-store", filepath.Join(tmp, "store"),
		"-target", "smoke="+swAddr+"/middleblock",
		"-api", apiAddr,
		"-rounds", "0", "-interval", "1h",
		"-seed", "1", "-requests", "40", "-updates", "20", "-shards", "1", "-entries", "16")
	if err != nil {
		return err
	}
	defer vd.kill()

	// Round 1 done?
	if err := pollJSON(apiAddr, "/healthz", deadline, func(v map[string]any) bool {
		n, _ := v["rounds"].(float64)
		return v["status"] == "ok" && n >= 1
	}); err != nil {
		return fmt.Errorf("round never completed: %v\nswitchvd output:\n%s\nswitchd output:\n%s",
			err, vd.out.String(), sw.out.String())
	}

	// The target is healthy and advanced.
	var targets []map[string]any
	if err := getJSON(apiAddr, "/targets", &targets); err != nil {
		return err
	}
	if len(targets) != 1 || targets[0]["name"] != "smoke" || targets[0]["healthy"] != true {
		return fmt.Errorf("unexpected /targets: %v", targets)
	}

	// The injected fault surfaced as a deduplicated fleet incident.
	var records []map[string]any
	if err := getJSON(apiAddr, "/incidents", &records); err != nil {
		return err
	}
	found := false
	for _, r := range records {
		if r["tool"] == "p4-fuzzer" {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("no p4-fuzzer incident record for fault %s; /incidents: %v\nswitchvd output:\n%s",
			fault, records, vd.out.String())
	}

	// Cooperative shutdown on SIGTERM.
	syscall.Kill(vd.cmd.Process.Pid, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- vd.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("switchvd exited uncleanly after SIGTERM: %v\n%s", err, vd.out.String())
		}
	case <-time.After(time.Until(deadline)):
		return fmt.Errorf("switchvd ignored SIGTERM\n%s", vd.out.String())
	}
	return nil
}

func waitTCP(addr string, deadline time.Time) error {
	for time.Now().Before(deadline) {
		if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			c.Close()
			return nil
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("timeout dialing %s", addr)
}

func getJSON(apiAddr, path string, v any) error {
	resp, err := http.Get("http://" + apiAddr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, body)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func pollJSON(apiAddr, path string, deadline time.Time, ok func(map[string]any) bool) error {
	for time.Now().Before(deadline) {
		var v map[string]any
		if err := getJSON(apiAddr, path, &v); err == nil && ok(v) {
			return nil
		}
		time.Sleep(500 * time.Millisecond)
	}
	return fmt.Errorf("timeout polling %s", path)
}
