package bench

import (
	"reflect"
	"testing"
)

// TestFiguresIndependentOfWorkers pins the contract the figure sweeps
// document: every point is a pure function of its cell, so a
// sequential sweep equals the shared 4-worker one, and a repeated
// Table II measurement reproduces itself exactly.
func TestFiguresIndependentOfWorkers(t *testing.T) {
	if seq, par := Figure4Workers(1), figure4Cached(); !reflect.DeepEqual(seq, par) {
		t.Errorf("Figure 4 differs between 1 and 4 workers:\n%v\n%v", seq, par)
	}
	if seq, par := Figure5Workers(1), figure5Cached(); !reflect.DeepEqual(seq, par) {
		t.Errorf("Figure 5 differs between 1 and 4 workers:\n%v\n%v", seq, par)
	}
	if seq, par := Figure6bWorkers(1), figure6bCached(); !reflect.DeepEqual(seq, par) {
		t.Errorf("Figure 6b differs between 1 and 4 workers:\n%v\n%v", seq, par)
	}
	if a, b := TableII(), TableII(); !reflect.DeepEqual(a, b) {
		t.Errorf("two Table II runs differ:\n%v\n%v", a, b)
	}
}
