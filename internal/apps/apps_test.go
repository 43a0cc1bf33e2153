package apps

import (
	"reflect"
	"testing"

	"simtmp/internal/trace"
)

// TestTableICharacteristics is the Table I reproduction in test form:
// every generated trace, re-analyzed through the queue-reconstruction
// pipeline, must show the published per-application characteristics.
func TestTableICharacteristics(t *testing.T) {
	for _, m := range All() {
		t.Run(m.Spec.Name, func(t *testing.T) {
			t.Parallel()
			tr := m.Generate(0, 1)
			if err := tr.Validate(); err != nil {
				t.Fatalf("invalid trace: %v", err)
			}
			s := trace.Analyze(tr)

			// Wildcards: no app uses ANY_TAG; only MiniDFT and MiniFE
			// use ANY_SOURCE.
			if s.TagWildcardRecvs != 0 {
				t.Errorf("tag wildcards = %d, want 0", s.TagWildcardRecvs)
			}
			wantSrcWild := m.Spec.Name == "MiniDFT" || m.Spec.Name == "MiniFE"
			if (s.SrcWildcardRecvs > 0) != wantSrcWild {
				t.Errorf("src wildcards = %d, want >0 = %v", s.SrcWildcardRecvs, wantSrcWild)
			}

			// Communicators: 1 everywhere except Nekbone (2), MiniDFT (7).
			if s.Communicators != m.Spec.Comms {
				t.Errorf("communicators = %d, want %d", s.Communicators, m.Spec.Comms)
			}

			// Peers per rank: the halo patterns' exact stencil degree,
			// RandomK within ±40% of the spec target.
			mean := s.PeersPerRank.Mean
			if deg, halo := map[Pattern]float64{Halo3D: 26, Halo3D6: 6}[m.Spec.Pattern]; halo {
				if mean != deg {
					t.Errorf("mean peers = %v, want the stencil's %v", mean, deg)
				}
			} else if mean < 0.6*float64(m.Spec.K) || mean > 1.5*float64(m.Spec.K) {
				t.Errorf("mean peers = %.1f, want ≈%d", mean, m.Spec.K)
			}

			// Tag budget: everything fits 16 bits (§IV).
			if s.MaxTagBits > 16 {
				t.Errorf("tags need %d bits, paper says ≤16", s.MaxTagBits)
			}
			switch m.Spec.Tags {
			case FewTags:
				if s.DistinctTags >= 4 {
					t.Errorf("distinct tags = %d, want <4", s.DistinctTags)
				}
			case ThousandsOfTags:
				if s.DistinctTags < 1000 {
					t.Errorf("distinct tags = %d, want ≥1000", s.DistinctTags)
				}
			}
		})
	}
}

// TestGenerateDeterministic: a seed fixes the whole trace. Every app's
// default-size trace must be identical across two calls, which map
// iteration order in neighbor construction would break.
func TestGenerateDeterministic(t *testing.T) {
	for _, m := range All() {
		if a, b := m.Generate(0, 1), m.Generate(0, 1); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two Generate(0, 1) calls differ", m.Spec.Name)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("HPL"); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestNamesMatchesAll(t *testing.T) {
	names := Names()
	if len(names) != 10 {
		t.Fatalf("got %d apps, want 10", len(names))
	}
	if names[0] != "Nekbone" || names[9] != "PARTISN" {
		t.Errorf("order wrong: %v", names)
	}
}

func TestHalo3DNeighborCounts(t *testing.T) {
	m := &Model{Spec: Spec{Pattern: Halo3D}}
	nb := m.buildNeighbors(64, nil)
	for r, lst := range nb {
		if len(lst) != 26 {
			t.Fatalf("rank %d has %d neighbors, want 26 (4x4x4 periodic)", r, len(lst))
		}
	}
	m6 := &Model{Spec: Spec{Pattern: Halo3D6}}
	nb6 := m6.buildNeighbors(64, nil)
	for r, lst := range nb6 {
		if len(lst) != 6 {
			t.Fatalf("rank %d has %d face neighbors, want 6", r, len(lst))
		}
	}
}

func TestNeighborSymmetry(t *testing.T) {
	for _, m := range All() {
		tr := m.Generate(0, 3)
		// Symmetry is implied by the generator construction; check the
		// trace instead: every send's (src,dst) pair has dst receiving
		// at least one message from src (peers maps are symmetric in
		// the analysis). Validate is the cheap proxy here.
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: %v", m.Spec.Name, err)
		}
	}
}

func TestGridDims(t *testing.T) {
	cases := []struct{ ranks, vol int }{
		{64, 64}, {27, 27}, {8, 8}, {96, 96},
	}
	for _, c := range cases {
		nx, ny, nz := gridDims(c.ranks)
		if nx*ny*nz < c.ranks {
			t.Errorf("gridDims(%d) = %dx%dx%d, volume too small", c.ranks, nx, ny, nz)
		}
	}
}

func TestCustomRankCount(t *testing.T) {
	m, _ := ByName("MOCFE")
	tr := m.Generate(8, 1)
	if tr.Ranks != 8 {
		t.Errorf("ranks = %d, want 8", tr.Ranks)
	}
	s := trace.Analyze(tr)
	if s.Sends == 0 || s.Recvs == 0 {
		t.Error("empty trace at custom scale")
	}
}

func TestMessageSizesWithinSpec(t *testing.T) {
	for _, m := range All() {
		tr := m.Generate(0, 2)
		lo, hi := m.Spec.MsgBytesMin, m.Spec.MsgBytesMax
		for i, e := range tr.Events {
			if e.Kind != trace.Send {
				continue
			}
			if e.Size < lo || e.Size > hi {
				t.Fatalf("%s event %d: size %d outside [%d,%d]", m.Spec.Name, i, e.Size, lo, hi)
			}
		}
	}
}

func TestMessageSizesSpread(t *testing.T) {
	// The log-uniform draw must actually spread: LULESH sizes span
	// 8KiB..64KiB, so we expect both halves of the range populated.
	m, _ := ByName("LULESH")
	tr := m.Generate(0, 3)
	lo, hi := 0, 0
	for _, e := range tr.Events {
		if e.Kind != trace.Send {
			continue
		}
		if e.Size < 20*1024 {
			lo++
		}
		if e.Size > 40*1024 {
			hi++
		}
	}
	if lo == 0 || hi == 0 {
		t.Errorf("size distribution degenerate: %d small, %d large", lo, hi)
	}
}
