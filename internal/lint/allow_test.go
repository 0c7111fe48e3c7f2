package lint

import (
	"strings"
	"testing"
)

func TestAllowDirectiveMissingJustification(t *testing.T) {
	p := checkFixture(t, "repro/internal/distcache", `package distcache
import "time"
//lint:allow determinism
func Stamp() time.Time { return time.Now() }
`)
	fs := Run([]*Package{p}, Analyzers())
	var directive, determinism int
	for _, f := range fs {
		switch f.Check {
		case "directive":
			directive++
			if !strings.Contains(f.Message, "no justification") {
				t.Fatalf("unexpected directive message: %s", f.Message)
			}
		case "determinism":
			determinism++
		}
	}
	if directive != 1 {
		t.Fatalf("want 1 directive finding, got %d:\n%s", directive, renderFindings(fs))
	}
	// A malformed directive must not suppress the underlying finding.
	if determinism != 1 {
		t.Fatalf("want 1 determinism finding (directive is void), got %d:\n%s", determinism, renderFindings(fs))
	}
}

func TestAllowDirectiveNoCheckID(t *testing.T) {
	p := checkFixture(t, "repro/internal/distcache", `package distcache
//lint:allow
func F() {}
`)
	fs := Run([]*Package{p}, Analyzers())
	if len(fs) != 1 || fs[0].Check != "directive" {
		t.Fatalf("want exactly one directive finding, got:\n%s", renderFindings(fs))
	}
}

func TestAllowDirectiveScopedToCheck(t *testing.T) {
	// The directive names errcheck, so the determinism finding on the
	// same line must survive.
	p := checkFixture(t, "repro/internal/distcache", `package distcache
import "time"
//lint:allow errcheck wrong check named here
func Stamp() time.Time { return time.Now() }
`)
	fs := Run([]*Package{p}, Analyzers())
	found := false
	for _, f := range fs {
		if f.Check == "determinism" {
			found = true
		}
	}
	if !found {
		t.Fatalf("determinism finding should survive an errcheck allow:\n%s", renderFindings(fs))
	}
}

func TestAllowDirectiveEndOfLine(t *testing.T) {
	p := checkFixture(t, "repro/internal/distcache", `package distcache
import "time"
func Stamp() time.Time { return time.Now() } //lint:allow determinism calibration-only helper
`)
	if fs := Run([]*Package{p}, Analyzers()); len(fs) != 0 {
		t.Fatalf("end-of-line allow should suppress:\n%s", renderFindings(fs))
	}
}

func TestAllowDirectiveStale(t *testing.T) {
	// The directive names a check that ran over the file but had nothing
	// to suppress: the directive itself becomes the finding.
	p := checkFixture(t, "repro/internal/distcache", `package distcache
//lint:allow determinism left over from a deleted time.Now call
func F() int { return 1 }
`)
	fs := Run([]*Package{p}, Analyzers())
	if len(fs) != 1 || fs[0].Check != "directive" ||
		!strings.Contains(fs[0].Message, "suppresses nothing") {
		t.Fatalf("want one stale-directive finding, got:\n%s", renderFindings(fs))
	}
}

func TestAllowDirectiveUnknownCheck(t *testing.T) {
	p := checkFixture(t, "repro/internal/distcache", `package distcache
//lint:allow nosuchcheck typo in the id
func F() int { return 1 }
`)
	fs := Run([]*Package{p}, Analyzers())
	if len(fs) != 1 || fs[0].Check != "directive" ||
		!strings.Contains(fs[0].Message, "unknown check nosuchcheck") {
		t.Fatalf("want one unknown-check finding, got:\n%s", renderFindings(fs))
	}
}

func TestAllowDirectiveNotStaleForUnranCheck(t *testing.T) {
	// Running a single analyzer must not declare directives for other
	// (known) checks stale: fixture tests and partial runs would drown
	// in noise otherwise.
	p := checkFixture(t, "repro/internal/distcache", `package distcache
//lint:allow errcheck held for a check this run does not include
func F() int { return 1 }
`)
	fs := Run([]*Package{p}, []*Analyzer{Determinism})
	if len(fs) != 0 {
		t.Fatalf("partial run flagged a directive for an unran check:\n%s", renderFindings(fs))
	}
}

func TestAllowDirectiveProdOnlyCheckInTestFile(t *testing.T) {
	// determinism does not run on test files, so a determinism allow in
	// a _test.go file can never fire; it must be reported as stale with
	// a message explaining why.
	p := checkFixtureWithTest(t, "repro/internal/distcache", `package distcache

func F() int { return 1 }
`, `package distcache

//lint:allow determinism tests may use wall time
func helper() int { return F() }
`)
	fs := Run([]*Package{p}, Analyzers())
	if len(fs) != 1 || fs[0].Check != "directive" ||
		!strings.Contains(fs[0].Message, "does not run on test files") {
		t.Fatalf("want one test-file stale finding, got:\n%s", renderFindings(fs))
	}
}

func TestAllowDirectiveUsedInTestFileNotStale(t *testing.T) {
	// goroutine DOES run on test files; a used allow there is not stale.
	p := checkFixtureWithTest(t, "repro/internal/distcache", `package distcache

func F() int { return 1 }
`, `package distcache

func spawn() {
	//lint:allow goroutine fixture goroutine is intentionally unbounded
	go func() {
		for {
		}
	}()
}
`)
	fs := Run([]*Package{p}, Analyzers())
	if len(fs) != 0 {
		t.Fatalf("used test-file allow reported findings:\n%s", renderFindings(fs))
	}
}

func TestAllowDirectiveMultiLineStatement(t *testing.T) {
	// The directive covers its own line and the line directly below.
	// A multi-line statement whose finding position lands on that next
	// line is suppressed...
	p := checkFixture(t, "repro/internal/distcache", `package distcache
import "time"

//lint:allow determinism calibration-only helper
var T = time.
	Now()
`)
	if fs := Run([]*Package{p}, Analyzers()); len(fs) != 0 {
		t.Fatalf("directive above a wrapped statement should suppress:\n%s", renderFindings(fs))
	}
}

func TestAllowDirectiveDoesNotReachDeepIntoStatement(t *testing.T) {
	// ...but a finding two or more lines below the directive is out of
	// range: the offending call must carry its own (end-of-line) allow.
	// The out-of-range directive is then itself stale.
	p := checkFixture(t, "repro/internal/distcache", `package distcache
import "time"

func wrap(_ int, t time.Time) time.Time { return t }

//lint:allow determinism too far from the call to cover it
var T = wrap(
	0,
	time.Now())
`)
	fs := Run([]*Package{p}, Analyzers())
	var determinism, stale int
	for _, f := range fs {
		switch {
		case f.Check == "determinism":
			determinism++
		case f.Check == "directive" && strings.Contains(f.Message, "suppresses nothing"):
			stale++
		}
	}
	if determinism != 1 || stale != 1 {
		t.Fatalf("want 1 determinism + 1 stale finding, got:\n%s", renderFindings(fs))
	}
}
