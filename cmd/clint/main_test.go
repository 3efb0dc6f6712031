package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/daemon"
)

// TestLinkUnitsInProcessMatchesDaemon pins that a unit which fails to parse
// joins no link facts on either path: `clint -link -stats` reports the same
// unit count in-process and via -daemon.
func TestLinkUnitsInProcessMatchesDaemon(t *testing.T) {
	bin := buildClint(t)
	root := t.TempDir()
	for name, src := range map[string]string{
		"a.c":   "int f(void) { return 1; }\n",
		"bad.c": "int x = ;\n",
	} {
		if err := os.WriteFile(filepath.Join(root, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(daemon.NewServer(daemon.Config{Root: root}).Handler())
	defer ts.Close()

	linkLine := func(extra ...string) string {
		t.Helper()
		cmd := exec.Command(bin, append(append([]string{"-link", "-stats"}, extra...), "a.c", "bad.c")...)
		cmd.Dir = root
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		cmd.Run() // the exit status reflects findings, not the count
		for _, line := range strings.Split(stderr.String(), "\n") {
			if strings.HasPrefix(line, "clint: link:") {
				return line
			}
		}
		t.Fatalf("clint %v printed no link line:\n%s", extra, stderr.String())
		return ""
	}
	local := linkLine()
	served := linkLine("-daemon", strings.TrimPrefix(ts.URL, "http://"))
	if local != served {
		t.Errorf("link stats differ:\n in-process %s\n daemon     %s", local, served)
	}
	if !strings.Contains(local, " 1 units,") {
		t.Errorf("in-process %q; want the unparsable unit left out of the join", local)
	}
}

// buildClint builds the clint binary into a temporary directory.
func buildClint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "clint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestProfileFlagsWriteProfiles pins -cpuprofile and -memprofile on clint,
// which ends in os.Exit: the profiles are stopped and written before it.
func TestProfileFlagsWriteProfiles(t *testing.T) {
	bin := buildClint(t)
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	src, err := filepath.Abs(filepath.Join("..", "..", "examples", "clint", "config_bugs.c"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-cpuprofile", cpu, "-memprofile", mem, src).CombinedOutput()
	if ee, ok := err.(*exec.ExitError); err != nil && (!ok || ee.ExitCode() != 1) {
		t.Fatalf("clint: %v\n%s", err, out) // exit 1 only reports findings
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: want a non-empty profile (err %v)", filepath.Base(path), err)
		}
	}
}
