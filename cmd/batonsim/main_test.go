package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"

	"baton/internal/experiments"
)

// TestFlagCombinations pins the command line: the retired live-cluster
// flags are unknown, bad sizes or figure names fail before anything runs,
// and -list prints the figure IDs.
func TestFlagCombinations(t *testing.T) {
	for _, tc := range []struct{ args, wantErr string }{
		{"-mode figures", "flag provided but not defined: -mode"},
		{"-peers 64", "flag provided but not defined: -peers"},
		{"-sizes 10,x", `invalid network size "x"`},
		{"-sizes 1", `invalid network size "1"`},
		{"-figure 8z", `unknown figure "8z"`},
	} {
		if err := run(io.Discard, strings.Fields(tc.args)); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: got error %v, want one containing %q", tc.args, err, tc.wantErr)
		}
	}
	var out bytes.Buffer
	if err := run(&out, []string{"-list"}); err != nil || out.String() != strings.Join(experiments.Figures(), "\n")+"\n" {
		t.Errorf("-list printed %q, err %v", out.String(), err)
	}
}

// TestRunFigures runs the default mode on a toy size.
func TestRunFigures(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, strings.Fields("-figure 8d -sizes 20,40 -queries 20 -data 5 -runs 1")); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "Figure 8d — ") || strings.Count(out.String(), "\n") < 5 {
		t.Fatalf("unexpected figures output:\n%s", out.String())
	}
}

// TestFigure8SmokeGolden pins the simulator's Figure 8 tables on a small
// run byte for byte, so a refactor that moves a routing, join or departure
// decision, a message charge or a draw from the random stream shows up as a
// diff. When a change is meant to move the figures, regenerate the file
// with
//
//	go run ./cmd/batonsim -sizes 40,80 -queries 100 -data 10 -runs 1 > cmd/batonsim/testdata/figure8_smoke.golden
func TestFigure8SmokeGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/figure8_smoke.golden")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out, strings.Fields("-sizes 40,80 -queries 100 -data 10 -runs 1")); err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(got), len(wantLines)) {
		if got[i] != wantLines[i] {
			t.Fatalf("line %d differs:\n got %q\nwant %q", i+1, got[i], wantLines[i])
		}
	}
	if len(got) != len(wantLines) {
		t.Fatalf("output has %d lines, golden has %d", len(got), len(wantLines))
	}
}
