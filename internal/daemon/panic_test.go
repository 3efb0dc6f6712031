package daemon

import (
	"strings"
	"testing"

	"repro/internal/guard/faultinject"
)

// TestPanickingUnitReportedAsFailed pins the runner's panic barrier on every
// file-serving endpoint: a unit whose parse panics comes back as that unit's
// failure, and the server keeps answering.
func TestPanickingUnitReportedAsFailed(t *testing.T) {
	c := startServer(t, NewServer(Config{Root: writeTestTree(t)}))
	files, inc := []string{"a.c"}, []string{"inc"}
	faultinject.Arm(faultinject.Config{
		Seed:   1,
		Rate:   1.0,
		Kinds:  []faultinject.Kind{faultinject.KindPanic},
		Points: []string{faultinject.PointParse},
	})
	defer faultinject.Disarm()

	lint, err := c.Lint(&LintRequest{Files: files, IncludePaths: inc, Mode: "bdd"})
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	if u := lint.Units[0]; !u.Failed || !strings.Contains(u.Errors, "panic") {
		t.Errorf("lint unit = %+v, want a failed unit reporting the panic", u)
	}

	parse, err := c.Parse(&ParseRequest{Files: files, IncludePaths: inc, Mode: "bdd", Opt: "all"})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if u := parse.Units[0]; u.HasAST || !strings.Contains(u.Err, "panic") {
		t.Errorf("parse unit = %+v, want a failed unit reporting the panic", u)
	}

	linked, err := c.Link(&LinkRequest{Files: files, IncludePaths: inc, Mode: "bdd"})
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	if linked.Units != 0 || len(linked.Failed) != 1 || !strings.Contains(linked.Failed[0].Errors, "panic") {
		t.Errorf("link = %+v, want a.c failed with the panic and no units joined", linked)
	}

	faultinject.Disarm()
	again, err := c.Lint(&LintRequest{Files: files, IncludePaths: inc, Mode: "bdd"})
	if err != nil {
		t.Fatalf("lint after the panics: %v", err)
	}
	if u := again.Units[0]; u.Failed {
		t.Errorf("lint after the panics = %+v, want a clean unit", u)
	}
}
