package bench

import (
	"reflect"
	"testing"
)

// TestFiguresIndependentOfWorkers pins the contract the figure sweeps
// document: every point is a pure function of its cell, so a sweep on
// one core equals the shared GOMAXPROCS 4 one, and a repeated Table II
// measurement reproduces itself exactly.
func TestFiguresIndependentOfWorkers(t *testing.T) {
	var fig4 []Fig4Point
	var fig5 []Fig5Point
	var fig6b []Fig6bPoint
	atProcs(1, func() { fig4, fig5, fig6b = Figure4(), Figure5(), Figure6b() })
	if par := figure4Cached(); !reflect.DeepEqual(fig4, par) {
		t.Errorf("Figure 4 differs between 1 and 4 workers:\n%v\n%v", fig4, par)
	}
	if par := figure5Cached(); !reflect.DeepEqual(fig5, par) {
		t.Errorf("Figure 5 differs between 1 and 4 workers:\n%v\n%v", fig5, par)
	}
	if par := figure6bCached(); !reflect.DeepEqual(fig6b, par) {
		t.Errorf("Figure 6b differs between 1 and 4 workers:\n%v\n%v", fig6b, par)
	}
	if a, b := TableII(), TableII(); !reflect.DeepEqual(a, b) {
		t.Errorf("two Table II runs differ:\n%v\n%v", a, b)
	}
}
