package main

import (
	"testing"

	"crnet/internal/stats"
)

func TestSelectExperiments(t *testing.T) {
	all, err := selectExperiments("all")
	if err != nil || len(all) < 21 {
		t.Fatalf("all: %v (%d)", err, len(all))
	}
	one, err := selectExperiments("e3")
	if err != nil || len(one) != 1 || one[0].ID != "E3" {
		t.Fatalf("single: %v %v", err, one)
	}
	many, err := selectExperiments("E1, e5 ,E21")
	if err != nil || len(many) != 3 || many[2].ID != "E21" {
		t.Fatalf("list: %v %v", err, many)
	}
	if _, err := selectExperiments("E99"); err == nil {
		t.Fatal("unknown id accepted")
	}
	if _, err := selectExperiments("E1,,E2"); err == nil {
		t.Fatal("empty id accepted")
	}
}

func TestFailRowsDetectsFailCells(t *testing.T) {
	prop := stats.NewTable("props", "property", "value", "expectation", "pass")
	prop.AddRow("a", "1", "1", "PASS")
	prop.AddRow("b", "2", "0", "FAIL")
	prop.AddRow("c", "0", "0", "PASS")
	if got := failRows(prop); len(got) != 1 || got[0] != "b" {
		t.Fatalf("failRows = %v, want [b]", got)
	}

	// E28 and E32 call their column "verdict"; a FAIL there gates the
	// exit code the same way.
	resume := stats.NewTable("E28-shaped", "scenario", "ckpt_cycle", "stream_hash", "verdict")
	resume.AddRow("uniform/CR", 2000, "abc", stats.Verdict(true))
	resume.AddRow("bursty/FCR+faults", 2000, "def", stats.Verdict(false))
	if got := failRows(resume); len(got) != 1 || got[0] != "bursty/FCR+faults" {
		t.Fatalf("failRows = %v, want [bursty/FCR+faults]", got)
	}

	// Tables without a pass/verdict column never gate the exit code,
	// even if a cell happens to contain the string FAIL.
	plain := stats.NewTable("series", "scheme", "note")
	plain.AddRow("x", "FAIL")
	if got := failRows(plain); got != nil {
		t.Fatalf("verdict-less table produced failures: %v", got)
	}
}
