package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleAlgo(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-algo", "fig1-swwp", "-attempts", "4"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "E1: fig1-swwp") {
		t.Fatalf("missing E1 table:\n%s", out)
	}
	if strings.Contains(out, "E2:") {
		t.Fatalf("-algo should filter to one experiment:\n%s", out)
	}
}

func TestRunUnknownAlgo(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-algo", "nope"}, &b)
	if err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
		t.Fatalf("expected unknown-algorithm error, got %v", err)
	}
	// The error lists the available names.
	if !strings.Contains(err.Error(), "fig1-swwp") {
		t.Fatalf("error should enumerate algorithms: %v", err)
	}
}

func TestRunMarkdown(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-algo", "mwsf", "-attempts", "2", "-markdown"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "| writers | readers |") {
		t.Fatalf("markdown output malformed:\n%s", b.String())
	}
}

func TestRunDSM(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-algo", "fig2-swrp", "-attempts", "2", "-dsm"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "E9:") {
		t.Fatalf("-dsm did not add E9 tables:\n%s", b.String())
	}
}

func TestRunAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	var b strings.Builder
	if err := run([]string{"-attempts", "2"}, &b); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"E1:", "E2:", "E3a:", "E3b:", "E3c:", "E4a:", "E4b:", "E4c:"} {
		if !strings.Contains(b.String(), id) {
			t.Fatalf("missing experiment %s", id)
		}
	}
}

// TestRMRCountsPinned compares rmrbench's output byte for byte with
// recorded tables.  The counts are deterministic for a seed (the
// simulator's scheduler is seeded), so any change to an encoding, the
// scheduler, the RMR accounting or the sweep plumbing that moves a
// count fails here.  An intended change regenerates the files with
// the same arguments:
//
//	go run ./cmd/rmrbench -algo mwsf -attempts 4 > cmd/rmrbench/testdata/mwsf-attempts4.golden
//	go run ./cmd/rmrbench -algo fig1-swwp -attempts 4 -dsm > cmd/rmrbench/testdata/fig1-swwp-attempts4-dsm.golden
func TestRMRCountsPinned(t *testing.T) {
	for golden, args := range map[string][]string{
		"mwsf-attempts4.golden":          {"-algo", "mwsf", "-attempts", "4"},
		"fig1-swwp-attempts4-dsm.golden": {"-algo", "fig1-swwp", "-attempts", "4", "-dsm"},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := run(args, &b); err != nil {
			t.Fatal(err)
		}
		if got := b.String(); got != string(want) {
			t.Errorf("rmrbench %v output changed:\n--- got\n%s--- want (testdata/%s)\n%s",
				args, got, golden, want)
		}
	}
}
