// Package examples holds runnable demonstration programs. The smoke test
// below builds and runs each one at a tiny instruction budget, so the
// examples cannot silently rot as the internal APIs they showcase evolve —
// they have no other test coverage.
package examples

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestElsqtraceRecordVerify builds cmd/elsqtrace and drives a tiny
// record→info→verify -live round trip, so the trace CLI (and the recorded
// format behind it) stays exercised in CI alongside the examples.
func TestElsqtraceRecordVerify(t *testing.T) {
	bin := buildCmd(t, "elsqtrace")
	tracePath := filepath.Join(t.TempDir(), "gzip.elt")
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

// TestElsqtraceRecordOutdir checks that record -bench without -out writes
// <outdir>/<bench>-s<seed>.elt, where elsqsweep -tracedir looks for it. The
// binary runs in a temporary directory, so a recording that ignored -outdir
// would land there and not in the source tree.
func TestElsqtraceRecordOutdir(t *testing.T) {
	bin := buildCmd(t, "elsqtrace")
	dir := t.TempDir()
	run := exec.Command(bin, "record", "-bench", "gzip", "-n", "2000", "-outdir", "traces")
	run.Dir = dir
	if out, err := run.CombinedOutput(); err != nil {
		t.Fatalf("elsqtrace record exited with %v\n%s", err, out)
	}
	if _, err := os.Stat(filepath.Join(dir, "traces", "gzip-s1.elt")); err != nil {
		t.Errorf("record -bench gzip -outdir traces wrote no traces/gzip-s1.elt: %v", err)
	}
}

// TestDefaultRecordingReplays: a recording made at elsqtrace's default
// length replays under the default budgets of elsqsim and elsqsweep, so
// neither refuses it as shorter than the run. The recording is made in a
// temporary directory.
func TestDefaultRecordingReplays(t *testing.T) {
	rec := buildCmd(t, "elsqtrace")
	dir := t.TempDir()
	run := exec.Command(rec, "record", "-bench", "gzip", "-outdir", "d")
	run.Dir = dir
	if out, err := run.CombinedOutput(); err != nil {
		t.Fatalf("elsqtrace record exited with %v\n%s", err, out)
	}
	traces := filepath.Join(dir, "d")
	runCmd(t, buildCmd(t, "elsqsim"), []string{"-trace", filepath.Join(traces, "gzip-s1.elt")}, 0)
	runCmd(t, buildCmd(t, "elsqsweep"), []string{"-benches", "gzip", "-tracedir", traces, "-q", "-out", os.DevNull}, 0)
}

// TestElsqsimFlags builds cmd/elsqsim once and checks that its config flags
// go through the config field registry: README's two command lines and a
// bare -model ooo run, while a misspelt value exits 2 instead of silently
// running some default. -cpuprofile and -memprofile must each write a
// profile.
func TestElsqsimFlags(t *testing.T) {
	bin := buildCmd(t, "elsqsim")
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
		{[]string{"-bench", "mcf", "-cpuprofile"}, 0},
		{[]string{"-bench", "mcf", "-memprofile"}, 0},
	} {
		runCmd(t, bin, append([]string{"-insts", "1500", "-warmup", "4000"}, tc.args...), tc.exit)
	}
}

// TestElsqsweepFlags checks that elsqsweep refuses command lines that
// would drop sweep points it was asked to run: two axes over one field
// (only the later one's values would run), and -tracedir together with a
// trace axis (every job would replay <tracedir>/<bench>-s<seed>.elt while
// its row names the axis value). Both recordings exist, so only the flag
// check can refuse the second. A job that reads more instructions than its
// 2,000-instruction recording holds is refused too, instead of running
// past the recording.
func TestElsqsweepFlags(t *testing.T) {
	dir := t.TempDir()
	rec := buildCmd(t, "elsqtrace")
	for _, sub := range []string{"a", "b"} {
		out := filepath.Join(dir, sub, "mcf-s1.elt")
		if err := os.Mkdir(filepath.Dir(out), 0o755); err != nil {
			t.Fatal(err)
		}
		runCmd(t, rec, []string{"record", "-bench", "mcf", "-n", "2000", "-out", out}, 0)
	}
	bin := buildCmd(t, "elsqsweep")
	for _, tc := range []struct {
		args []string
		exit int
	}{
		{[]string{"-axis", "ert=line,hash"}, 0},
		{[]string{"-axis", "ert=line", "-axis", "ert=hash"}, 2},
		{[]string{"-axis", "trace=" + filepath.Join(dir, "a", "mcf-s1.elt")}, 0},
		{[]string{"-axis", "trace=" + filepath.Join(dir, "a", "mcf-s1.elt"), "-tracedir", filepath.Join(dir, "b")}, 2},
		{[]string{"-tracedir", filepath.Join(dir, "a")}, 0},
		{[]string{"-insts", "3000", "-tracedir", filepath.Join(dir, "a")}, 2},
	} {
		runCmd(t, bin, append([]string{"-benches", "mcf", "-insts", "100", "-warmup", "0", "-q", "-out", os.DevNull}, tc.args...), tc.exit)
	}
}

// TestPaperbenchProfileFlags checks that paperbench's -cpuprofile and
// -memprofile each write a profile.
func TestPaperbenchProfileFlags(t *testing.T) {
	bin := buildCmd(t, "paperbench")
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		runCmd(t, bin, []string{"-exp", "fig1", "-insts", "1500", "-warmup", "4000", "-workers", "1", flag}, 0)
	}
}

// buildCmd builds repro/cmd/<name> into a temporary directory and returns
// the binary's path.
func buildCmd(t *testing.T, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/"+name)
	build.Dir = "."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build cmd/%s failed: %v\n%s", name, err, out)
	}
	return bin
}

// runCmd runs bin with args and checks its exit code. When the last
// argument is -cpuprofile or -memprofile, runCmd appends a file name to it
// and checks that the run wrote a non-empty gzip file there, which is what
// runtime/pprof writes.
func runCmd(t *testing.T, bin string, args []string, wantExit int) {
	t.Helper()
	var profile string
	if last := args[len(args)-1]; last == "-cpuprofile" || last == "-memprofile" {
		profile = filepath.Join(t.TempDir(), "prof.out")
		args = append(args, profile)
	}
	var stderr bytes.Buffer
	run := exec.Command(bin, args...)
	run.Stderr = &stderr
	err := run.Run()
	exit := 0
	if ee, ok := err.(*exec.ExitError); ok {
		exit = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s %v: %v", filepath.Base(bin), args, err)
	}
	if exit != wantExit {
		t.Errorf("%s %v exited %d, want %d\nstderr: %s", filepath.Base(bin), args, exit, wantExit, stderr.String())
	}
	if profile == "" {
		return
	}
	if b, err := os.ReadFile(profile); err != nil || !bytes.HasPrefix(b, []byte{0x1f, 0x8b}) {
		t.Errorf("%s %v wrote no gzip profile (%v)", filepath.Base(bin), args, err)
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
