package main

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/daemon"
	"repro/internal/guard/faultinject"
)

// invocation is one in-process superc run.
type invocation struct {
	stdout, stderr string
	exit           int
}

func invoke(args ...string) invocation {
	var stdout, stderr bytes.Buffer
	exit := run(args, &stdout, &stderr)
	return invocation{stdout.String(), stderr.String(), exit}
}

// TestPanickingUnitReportedAsFailed pins the runner's panic barrier in
// superc: a unit whose parse panics is reported on stderr as failed, the
// other units still print their summaries, and the exit status is 1.
func TestPanickingUnitReportedAsFailed(t *testing.T) {
	dir := t.TempDir()
	var files []string
	for _, name := range []string{"a.c", "b.c", "c.c"} {
		path := filepath.Join(dir, name)
		src := fmt.Sprintf("#ifdef CONFIG_A\nint %s_x;\n#endif\nint %s_f(void) { return 1; }\n", name[:1], name[:1])
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		files = append(files, path)
	}
	// Find a seed whose plan panics in exactly one of the three units.
	victim := ""
	for seed := int64(1); victim == ""; seed++ {
		faultinject.Arm(faultinject.Config{
			Seed:   seed,
			Rate:   0.5,
			Kinds:  []faultinject.Kind{faultinject.KindPanic},
			Points: []string{faultinject.PointParse},
		})
		var fired []string
		for _, f := range files {
			if ok, _ := faultinject.Fires(f, faultinject.PointParse); ok {
				fired = append(fired, f)
			}
		}
		if len(fired) == 1 {
			victim = fired[0]
		}
	}
	defer faultinject.Disarm()

	got := invoke(append([]string{"-j", "2"}, files...)...)
	if got.exit != 1 {
		t.Errorf("exit status %d, want 1", got.exit)
	}
	if n := strings.Count(got.stdout, "preprocess: "); n != 2 {
		t.Errorf("%d summaries printed, want the 2 healthy units':\n%s", n, got.stdout)
	}
	if want := "superc: panic processing " + victim; !strings.Contains(got.stderr, want) {
		t.Errorf("stderr lacks %q:\n%s", want, got.stderr)
	}
}

// TestSummarySameAtAnyJobsAndViaDaemon pins that the summary's stdout,
// stderr and exit status are the same at -j 1, at -j 4 and served by a
// superd daemon: all three render the runner's units through one renderer.
func TestSummarySameAtAnyJobsAndViaDaemon(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// The daemon takes paths relative to its root; run from there so both
	// paths name the files alike.
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	ts := httptest.NewServer(daemon.NewServer(daemon.Config{Root: root}).Handler())
	defer ts.Close()
	addr := strings.TrimPrefix(ts.URL, "http://")

	for _, batch := range [][]string{
		{"-I", "examples/clint", "examples/clint/config_bugs.c", "examples/clint/clean.c"},
		{"-I", "examples/link", "examples/link/a.c", "examples/link/b.c"},
	} {
		want := invoke(append([]string{"-j", "1"}, batch...)...)
		if strings.Count(want.stdout, "preprocess: ") != 2 {
			t.Fatalf("%v -j 1 printed no summaries:\n%s%s", batch, want.stdout, want.stderr)
		}
		for _, extra := range [][]string{{"-j", "4"}, {"-daemon", addr}} {
			got := invoke(append(extra, batch...)...)
			if got != want {
				t.Errorf("%v %v differs from -j 1:\n got  %+v\n want %+v", extra, batch, got, want)
			}
		}
	}
}

// TestProfileFlagsWriteProfiles pins -cpuprofile and -memprofile on superc:
// one run writes both files, and neither is empty.
func TestProfileFlagsWriteProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	r := invoke("-cpuprofile", cpu, "-memprofile", mem, filepath.Join("..", "..", "examples", "clint", "clean.c"))
	if r.exit != 0 {
		t.Fatalf("exit %d; stderr:\n%s", r.exit, r.stderr)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: want a non-empty profile (err %v)", filepath.Base(path), err)
		}
	}
}
