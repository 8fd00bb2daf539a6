package psi

// End-to-end error-path coverage of the two binaries: every abnormal
// termination must exit with its engine error class code (3 malformed,
// 4 step-limit, 5 deadline, 6 canceled, 7 fault, 8 degraded) and name
// the class on stderr. Historically every failure exited 1, so scripted
// drivers could not tell a diverging run from a typo'd flag.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildCLIs compiles both binaries once into a shared temp dir.
func buildCLIs(t *testing.T) (psiBin, benchBin string) {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode: skipping CLI binary builds")
	}
	dir := t.TempDir()
	psiBin = filepath.Join(dir, "psi")
	benchBin = filepath.Join(dir, "psibench")
	for bin, pkg := range map[string]string{psiBin: "./cmd/psi", benchBin: "./cmd/psibench"} {
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		cmd.Dir = "."
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	return psiBin, benchBin
}

// runCLI executes a built binary and returns its exit code and stderr.
func runCLI(t *testing.T, bin string, args ...string) (int, string) {
	t.Helper()
	var stderr strings.Builder
	cmd := exec.Command(bin, args...)
	cmd.Stdout = nil
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err == nil {
		return 0, stderr.String()
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), stderr.String()
	}
	t.Fatalf("%s %v: %v", bin, args, err)
	return -1, ""
}

func writeProg(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.pl")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCLIErrorExitCodes(t *testing.T) {
	psiBin, benchBin := buildCLIs(t)
	okProg := writeProg(t, "go :- X is 1 + 2, X = 3.\n")
	boomProg := writeProg(t, "go :- X is 1 // 0, X = X.\n")
	loopProg := writeProg(t, "go :- go.\n")

	cases := []struct {
		name   string
		bin    string
		args   []string
		code   int
		stderr string // substring that must appear (empty = no check)
	}{
		{"psi ok", psiBin, []string{"-report=false", okProg}, 0, ""},
		{"psi malformed", psiBin, []string{boomProg}, 3, "malformed"},
		{"psi step limit", psiBin, []string{"-steps", "1000", loopProg}, 4, "step-limit"},
		{"psi deadline", psiBin, []string{"-timeout", "100ms", loopProg}, 5, "deadline"},
		{"psi usage", psiBin, []string{"one.pl", "two.pl"}, 2, "usage"},
		{"psi dec malformed", psiBin, []string{"-dec", boomProg}, 3, "malformed"},
		{"psi dec step limit", psiBin, []string{"-dec", "-steps", "1000", loopProg}, 4, "step-limit"},
		{"psi dec deadline", psiBin, []string{"-dec", "-timeout", "100ms", loopProg}, 5, "deadline"},
		{"psibench step limit", benchBin, []string{"-j", "1", "-steps", "1000", "2"}, 4, "step-limit"},
		{"psibench usage", benchBin, []string{"nonsense"}, 2, ""},
		{"psi fault", psiBin, []string{"-report=false", "-fault", "site=mem,after=1,seed=1", okProg}, 7, "fault"},
		{"psi bad fault", psiBin, []string{"-fault", "site=bogus", okProg}, 2, "bad -fault"},
		{"psibench fault", benchBin, []string{"-j", "2", "-fault", "site=trace,after=100,seed=1", "2"}, 7, "fault"},
		{"psibench bad fault", benchBin, []string{"-fault", "after=100", "2"}, 2, "bad -fault"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stderr := runCLI(t, tc.bin, tc.args...)
			if code != tc.code {
				t.Errorf("exit code %d, want %d (stderr: %s)", code, tc.code, stderr)
			}
			if tc.stderr != "" && !strings.Contains(stderr, tc.stderr) {
				t.Errorf("stderr %q does not mention %q", stderr, tc.stderr)
			}
		})
	}
}

// TestCLIDegradedExit drives the graceful-degradation path end to end:
// with one workload faulted under -keep-going, psibench must still print
// the surviving rows plus the degraded section on stdout and exit with
// the distinct degraded code.
func TestCLIDegradedExit(t *testing.T) {
	_, benchBin := buildCLIs(t)
	var stdout, stderr strings.Builder
	cmd := exec.Command(benchBin, "-j", "2", "-keep-going",
		"-fault", "site=trace,after=100,seed=1,only=8 puzzle", "2")
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("want degraded exit, got err %v (stderr: %s)", err, stderr.String())
	}
	if ee.ExitCode() != 8 {
		t.Errorf("exit code %d, want 8 (stderr: %s)", ee.ExitCode(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "degraded") {
		t.Errorf("stderr %q does not mention degradation", stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "Table 2") {
		t.Errorf("degraded run lost the table header:\n%s", out)
	}
	if !strings.Contains(out, "window-2") {
		t.Errorf("surviving workload missing from degraded output:\n%s", out)
	}
	if !strings.Contains(out, "Degraded workloads: 1 run(s) failed") {
		t.Errorf("degraded section missing from stdout:\n%s", out)
	}
	if !strings.Contains(out, "table2/8 puzzle") {
		t.Errorf("degraded section does not name the faulted cell:\n%s", out)
	}
}

// TestCLISigintCancels pins the signal path: SIGINT must cancel the run
// context so a looping program exits with the canceled class code
// instead of dying uncontrolled on the signal.
func TestCLISigintCancels(t *testing.T) {
	psiBin, _ := buildCLIs(t)
	loopProg := writeProg(t, "go :- go.\n")
	var stderr strings.Builder
	cmd := exec.Command(psiBin, loopProg)
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond) // let the run loop get going
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("want canceled exit, got err %v (stderr: %s)", err, stderr.String())
	}
	if ee.ExitCode() != 6 {
		t.Errorf("exit code %d, want 6 (stderr: %s)", ee.ExitCode(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "canceled") {
		t.Errorf("stderr %q does not name the canceled class", stderr.String())
	}
}

// TestCLIFastSweepsStayFast pins that the Figure 1 and cache-lab sweeps
// ride the fast engine: they tap the runs' memory commands, so
// psibench -engine fast has no downgrade to warn about and prints
// nothing on stderr.
func TestCLIFastSweepsStayFast(t *testing.T) {
	_, benchBin := buildCLIs(t)
	for _, sel := range []string{"fig1", "lab"} {
		code, stderr := runCLI(t, benchBin, "-engine", "fast", "-j", "2", sel)
		if code != 0 || stderr != "" {
			t.Errorf("psibench -engine fast %s: exit %d, stderr %q; want exit 0 and no warning", sel, code, stderr)
		}
	}
}
