package simt

import "testing"

func TestBankConflictsCounting(t *testing.T) {
	cases := []struct {
		name  string
		addrs []int
		want  uint64
	}{
		{"sequential (one per bank)", seq(0, 32, 1), 0},
		{"broadcast (same address)", repeat(5, 32), 0},
		{"stride 32 (all one bank)", seq(0, 32, 32), 31},
		{"stride 2 (pairs per bank)", seq(0, 32, 2), 1},
		{"stride 33 (padded, conflict-free)", seq(0, 32, 33), 0},
		{"empty", nil, 0},
		{"two lanes same bank", []int{0, 32}, 1},
		{"two lanes same address", []int{7, 7}, 0},
	}
	for _, c := range cases {
		if got := bankConflicts(c.addrs); got != c.want {
			t.Errorf("%s: conflicts = %d, want %d", c.name, got, c.want)
		}
	}
}

func seq(start, n, stride int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = start + i*stride
	}
	return out
}

func repeat(v, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestSharedOpsBillConflicts(t *testing.T) {
	var ctrs Counters
	w := NewWarp(0, &ctrs)
	sm := NewMemory(33 * 32)
	var dst [LaneCount]uint64
	// Column access with stride 32: worst case, 31 extra passes.
	w.LoadSharedStrided(sm, 0, 32, &dst)
	if ctrs.SMemConflict != 31 {
		t.Errorf("stride-32 load: conflicts = %d, want 31", ctrs.SMemConflict)
	}
	// Padded stride 33: conflict-free.
	before := ctrs.SMemConflict
	w.LoadSharedStrided(sm, 0, 33, &dst)
	if ctrs.SMemConflict != before {
		t.Errorf("stride-33 load billed conflicts")
	}
	// A lane-contiguous store touches every bank once.
	w.StoreSharedRange(sm, 7, &dst)
	if ctrs.SMemConflict != before {
		t.Errorf("range store billed conflicts")
	}
}
