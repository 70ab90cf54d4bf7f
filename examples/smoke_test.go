// Package examples holds runnable demonstration programs. The smoke test
// below builds and runs each one at a tiny instruction budget, so the
// examples cannot silently rot as the internal APIs they showcase evolve —
// they have no other test coverage.
package examples

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestElsqtraceRecordVerify builds cmd/elsqtrace and drives a tiny
// record→info→verify -live round trip, so the trace CLI (and the recorded
// format behind it) stays exercised in CI alongside the examples.
func TestElsqtraceRecordVerify(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "elsqtrace")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/elsqtrace")
	build.Dir = "."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build cmd/elsqtrace failed: %v\n%s", err, out)
	}

	tracePath := filepath.Join(dir, "gzip.elt")
	for _, step := range [][]string{
		{"record", "-bench", "gzip", "-seed", "1", "-n", "4000", "-out", tracePath},
		{"info", tracePath},
		{"verify", "-live", tracePath},
		{"cat", "-limit", "5", tracePath},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, step...)
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("elsqtrace %v exited with %v\nstderr: %s", step, err, stderr.String())
		}
		if stdout.Len() == 0 {
			t.Errorf("elsqtrace %v produced no output", step)
		}
	}
}

// TestElsqsimFlags builds cmd/elsqsim once and checks that its config flags
// go through the config field registry: README's two command lines and a
// bare -model ooo run, while a misspelt value exits 2 instead of silently
// running some default.
func TestElsqsimFlags(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "elsqsim")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/elsqsim")
	build.Dir = "."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build cmd/elsqsim failed: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		exit int
	}{
		{[]string{"-bench", "mcf", "-model", "fmc", "-lsq", "elsq", "-ert", "hash", "-sqm"}, 0},
		{[]string{"-bench", "swim", "-model", "ooo", "-lsq", "conventional"}, 0},
		{[]string{"-bench", "mcf", "-model", "ooo"}, 0},
		{[]string{"-ert", "lien"}, 2},
		{[]string{"-lsq", "svw", "-svw", "bogus"}, 2},
		{[]string{"-model", "bogus"}, 2},
	} {
		var stderr bytes.Buffer
		run := exec.Command(bin, append(tc.args, "-insts", "1500", "-warmup", "4000")...)
		run.Stderr = &stderr
		err := run.Run()
		exit := 0
		if ee, ok := err.(*exec.ExitError); ok {
			exit = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("elsqsim %v: %v", tc.args, err)
		}
		if exit != tc.exit {
			t.Errorf("elsqsim %v exited %d, want %d\nstderr: %s", tc.args, exit, tc.exit, stderr.String())
		}
	}
}

func TestExamplesBuildAndRun(t *testing.T) {
	examples := []string{"quickstart", "largewindow", "pointerchase", "filtertuning"}
	binDir := t.TempDir()
	for _, name := range examples {
		name := name
		t.Run(name, func(t *testing.T) {
			bin := filepath.Join(binDir, name)
			build := exec.Command("go", "build", "-o", bin, "./"+name)
			build.Dir = "."
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("go build ./examples/%s failed: %v\n%s", name, err, out)
			}

			var stdout, stderr bytes.Buffer
			run := exec.Command(bin, "-insts", "1500", "-warmup", "4000")
			run.Stdout = &stdout
			run.Stderr = &stderr
			if err := run.Run(); err != nil {
				t.Fatalf("%s exited with %v\nstderr: %s", name, err, stderr.String())
			}
			if stdout.Len() == 0 {
				t.Errorf("%s produced no output", name)
			}
		})
	}
}
