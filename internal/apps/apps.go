// Package apps models the ten DOE exascale proxy applications the
// paper analyzes (§IV, Table I, Figure 2, Figure 6a). The original
// DUMPI traces are not redistributable, so each model generates a
// synthetic trace whose derived characteristics — wildcard usage,
// communicator count, peers per rank, tag-space size, UMQ/PRQ depth
// distribution, tuple uniqueness — reproduce the published values.
// The analysis pipeline (internal/trace) then re-measures them through
// the same code path the paper's methodology used.
package apps

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"simtmp/internal/trace"
)

// TagMode describes an application's tag-space usage (§IV: some apps
// use thousands of distinct tags, others fewer than four).
type TagMode int

const (
	// FewTags uses a handful of constant tags (AMG, LULESH, MiniFE).
	FewTags TagMode = iota
	// ModerateTags uses a few hundred distinct tags.
	ModerateTags
	// ThousandsOfTags derives tags from iteration and message indices
	// (MOCFE, MiniDFT, PARTISN).
	ThousandsOfTags
)

// Pattern selects the communication topology.
type Pattern int

const (
	// Halo3D is a 26-neighbor 3D stencil (LULESH).
	Halo3D Pattern = iota
	// Halo3D6 is the 6-neighbor face-only 3D sweep (PARTISN).
	Halo3D6
	// RandomK is a symmetric random graph of roughly K peers
	// (irregular applications: Nekbone, Boxlib) or wide spreads
	// (CNS 72, AMG 79).
	RandomK
)

// Spec is one proxy application's published characterization.
type Spec struct {
	Name  string
	Suite string

	// PaperRanks is the scale of the DOE trace the paper analyzed;
	// DefaultRanks is the (smaller) scale this model generates at.
	PaperRanks   int
	DefaultRanks int

	// Comms is the number of communicators carrying point-to-point
	// traffic (Table I: 1 everywhere except Nekbone=2 and MiniDFT=7).
	Comms int

	// SrcWildcards is the fraction of receives using MPI_ANY_SOURCE
	// (only MiniDFT and MiniFE are non-zero; no app uses ANY_TAG).
	SrcWildcards float64

	Tags    TagMode
	FewTagN int // distinct tags when Tags == FewTags

	Pattern   Pattern
	K         int  // target peers per rank
	Irregular bool // uneven per-peer traffic (Nekbone, Boxlib)

	// PrePost is the fraction of receives posted ahead of the sends in
	// each iteration (LULESH pre-posts nearly everything).
	PrePost float64

	// DepthBase and DepthTail shape the per-rank UMQ depth: three
	// quarters of the ranks receive about DepthBase unexpected
	// messages per iteration, the remaining quarter DepthTail
	// (Figure 2: Nekbone median ≈1800 but mean ≈4000 — a heavy tail).
	DepthBase int
	DepthTail int

	// MsgBytesMin/Max bound the per-message payload size (log-uniform
	// draw). Halo exchanges move face blocks (tens of KiB); solver
	// handshakes move scalars and small vectors.
	MsgBytesMin int
	MsgBytesMax int

	Iterations int
}

// Model generates traces for one application.
type Model struct {
	Spec Spec
}

// All returns the ten application models in the paper's Table I order.
func All() []*Model {
	specs := []Spec{
		{
			Name: "Nekbone", Suite: "CESAR", PaperRanks: 1024, DefaultRanks: 32,
			Comms: 2, Tags: FewTags, FewTagN: 3, Pattern: RandomK, K: 25,
			Irregular: true, PrePost: 0.05, DepthBase: 1800, DepthTail: 10600, Iterations: 1,
			MsgBytesMin: 64, MsgBytesMax: 4 * 1024,
		},
		{
			Name: "MOCFE", Suite: "CESAR", PaperRanks: 1024, DefaultRanks: 32,
			Comms: 1, Tags: ThousandsOfTags, Pattern: RandomK, K: 12,
			PrePost: 0.3, DepthBase: 200, DepthTail: 350, Iterations: 3,
			MsgBytesMin: 256, MsgBytesMax: 8 * 1024,
		},
		{
			Name: "CNS", Suite: "EXACT", PaperRanks: 1024, DefaultRanks: 96,
			Comms: 1, Tags: ModerateTags, Pattern: RandomK, K: 72,
			PrePost: 0.4, DepthBase: 250, DepthTail: 400, Iterations: 2,
			MsgBytesMin: 4 * 1024, MsgBytesMax: 128 * 1024,
		},
		{
			Name: "MultiGrid", Suite: "EXACT", PaperRanks: 1024, DefaultRanks: 32,
			Comms: 1, Tags: ModerateTags, Pattern: RandomK, K: 27,
			PrePost: 0.05, DepthBase: 1500, DepthTail: 3500, Iterations: 1,
			MsgBytesMin: 512, MsgBytesMax: 16 * 1024,
		},
		{
			Name: "LULESH", Suite: "EXMATEX", PaperRanks: 512, DefaultRanks: 64,
			Comms: 1, Tags: FewTags, FewTagN: 3, Pattern: Halo3D, K: 26,
			PrePost: 0.9, DepthBase: 200, DepthTail: 300, Iterations: 3,
			MsgBytesMin: 8 * 1024, MsgBytesMax: 64 * 1024,
		},
		{
			Name: "Boxlib", Suite: "AMR", PaperRanks: 1024, DefaultRanks: 32,
			Comms: 1, Tags: ModerateTags, Pattern: RandomK, K: 20,
			Irregular: true, PrePost: 0.3, DepthBase: 150, DepthTail: 330, Iterations: 2,
			MsgBytesMin: 1024, MsgBytesMax: 32 * 1024,
		},
		{
			Name: "AMG", Suite: "DesignForward", PaperRanks: 1024, DefaultRanks: 96,
			Comms: 1, Tags: FewTags, FewTagN: 3, Pattern: RandomK, K: 79,
			PrePost: 0.4, DepthBase: 240, DepthTail: 380, Iterations: 2,
			MsgBytesMin: 128, MsgBytesMax: 4 * 1024,
		},
		{
			Name: "MiniDFT", Suite: "DesignForward", PaperRanks: 512, DefaultRanks: 32,
			Comms: 7, SrcWildcards: 0.12, Tags: ThousandsOfTags, Pattern: RandomK, K: 16,
			PrePost: 0.3, DepthBase: 220, DepthTail: 350, Iterations: 3,
			MsgBytesMin: 16 * 1024, MsgBytesMax: 256 * 1024,
		},
		{
			Name: "MiniFE", Suite: "DesignForward", PaperRanks: 1024, DefaultRanks: 32,
			Comms: 1, SrcWildcards: 0.08, Tags: FewTags, FewTagN: 3, Pattern: RandomK, K: 14,
			PrePost: 0.5, DepthBase: 150, DepthTail: 250, Iterations: 3,
			MsgBytesMin: 512, MsgBytesMax: 16 * 1024,
		},
		{
			Name: "PARTISN", Suite: "DesignForward", PaperRanks: 1024, DefaultRanks: 64,
			Comms: 1, Tags: ThousandsOfTags, Pattern: Halo3D6, K: 6,
			PrePost: 0.2, DepthBase: 120, DepthTail: 200, Iterations: 4,
			MsgBytesMin: 2 * 1024, MsgBytesMax: 24 * 1024,
		},
	}
	models := make([]*Model, len(specs))
	for i := range specs {
		models[i] = &Model{Spec: specs[i]}
	}
	return models
}

// ByName returns the model with the given name.
func ByName(name string) (*Model, error) {
	for _, m := range All() {
		if m.Spec.Name == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("apps: unknown application %q", name)
}

// Names lists the application names in Table I order.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, m := range all {
		names[i] = m.Spec.Name
	}
	return names
}

// Generate produces a synthetic trace at the given scale (0 means
// Spec.DefaultRanks). Generation is deterministic for a given
// (ranks, seed).
func (m *Model) Generate(ranks int, seed int64) *trace.Trace {
	s := m.Spec
	if ranks <= 0 {
		ranks = s.DefaultRanks
	}
	rng := rand.New(rand.NewSource(seed))
	neighbors := m.buildNeighbors(ranks, rng)

	t := &trace.Trace{App: s.Name, Ranks: ranks}

	// Per-rank unexpected-depth targets: 3/4 of ranks at DepthBase,
	// 1/4 at DepthTail (the Figure 2 tail).
	depth := make([]int, ranks)
	for r := range depth {
		if r%4 == 3 {
			depth[r] = s.DepthTail
		} else {
			depth[r] = s.DepthBase
		}
	}

	sizeOf := func() int {
		lo, hi := s.MsgBytesMin, s.MsgBytesMax
		if lo <= 0 {
			lo = 64
		}
		if hi <= lo {
			hi = lo + 1
		}
		// Log-uniform draw between lo and hi.
		r := rng.Float64()
		span := float64(hi) / float64(lo)
		return int(float64(lo) * math.Exp(r*math.Log(span)))
	}
	tagOf := func(iter, seq int) int {
		switch s.Tags {
		case FewTags:
			return seq % s.FewTagN
		case ModerateTags:
			return (iter*37 + seq) % 300
		default: // ThousandsOfTags
			return (iter*4096 + seq) % 60000
		}
	}
	// prePosted is the receives a rank with UMQ depth du pre-posts:
	// the app's pre-posting ratio, capped at 1.5× the UMQ depth so
	// heavy pre-posters (LULESH) keep the PRQ in its published band
	// ("PRQ shows similar lengths").
	prePosted := func(du int) int {
		if s.PrePost <= 0 || s.PrePost >= 1 {
			return 0
		}
		return min(int(s.PrePost/(1-s.PrePost)*float64(du)), du*3/2)
	}
	commOf := func(seq int) int {
		if s.Comms <= 1 {
			return 0
		}
		return seq % s.Comms
	}

	for iter := 0; iter < s.Iterations; iter++ {
		// Plan this iteration's messages: receiver-oriented so depth
		// targets are exact. Each rank receives depth[r]/(1-PrePost)
		// messages spread over its neighbors; PrePost of the matching
		// receives are posted before any send.
		type planned struct {
			src, dst, tag, comm, size int
		}
		var msgs []planned
		recvOf := make([][]planned, ranks)
		for r := 0; r < ranks; r++ {
			nb := neighbors[r]
			if len(nb) == 0 {
				continue
			}
			// du arrivals go unexpected (the UMQ target); dp receives
			// are pre-posted (the PRQ target).
			du, dp := depth[r], prePosted(depth[r])
			total := du + dp
			perPeer := total / len(nb)
			if perPeer == 0 {
				perPeer = 1
			}
			seq := iter*100003 + r*977
			for pi, src := range nb {
				n := perPeer
				if s.Irregular {
					// Uneven peer utilization: earlier neighbors carry
					// geometrically more traffic.
					switch {
					case pi == 0:
						n = perPeer * 3
					case pi < len(nb)/4:
						n = perPeer * 2
					case pi > 3*len(nb)/4:
						n = perPeer / 2
					}
					if n == 0 {
						n = 1
					}
				}
				for k := 0; k < n; k++ {
					seq++
					pmsg := planned{src: src, dst: r, tag: tagOf(iter, seq), comm: commOf(seq), size: sizeOf()}
					msgs = append(msgs, pmsg)
					recvOf[r] = append(recvOf[r], pmsg)
				}
			}
		}

		// Pre-posted receives (a prefix of each rank's receive list).
		post := func(r int, p planned) {
			src := p.src
			if s.SrcWildcards > 0 && rng.Float64() < s.SrcWildcards {
				src = trace.AnySourcePeer
			}
			t.Events = append(t.Events, trace.Event{
				Kind: trace.Recv, Rank: r, Peer: src, Tag: p.tag, Comm: p.comm, Size: p.size,
			})
		}
		pre := make([]int, ranks)
		for r := 0; r < ranks; r++ {
			dp := prePosted(depth[r])
			pre[r] = len(recvOf[r]) * dp / (depth[r] + dp)
			for _, p := range recvOf[r][:pre[r]] {
				post(r, p)
			}
		}
		// All sends of the iteration (in a rank-interleaved shuffle, as
		// network arrival order would be).
		rng.Shuffle(len(msgs), func(i, j int) { msgs[i], msgs[j] = msgs[j], msgs[i] })
		for _, p := range msgs {
			t.Events = append(t.Events, trace.Event{
				Kind: trace.Send, Rank: p.src, Peer: p.dst, Tag: p.tag, Comm: p.comm, Size: p.size,
			})
		}
		// Late receives drain the unexpected queue.
		for r := 0; r < ranks; r++ {
			for _, p := range recvOf[r][pre[r]:] {
				post(r, p)
			}
		}
	}
	return t
}

// buildNeighbors returns a symmetric neighbor list per rank.
func (m *Model) buildNeighbors(ranks int, rng *rand.Rand) [][]int {
	switch m.Spec.Pattern {
	case Halo3D:
		return halo3D(ranks, true)
	case Halo3D6:
		return halo3D(ranks, false)
	default:
		return randomK(ranks, m.Spec.K, rng)
	}
}

// halo3D arranges ranks in the most cubic possible grid and connects
// each rank to its 26 (full) or 6 (faces-only) periodic neighbors.
func halo3D(ranks int, corners bool) [][]int {
	nx, ny, nz := gridDims(ranks)
	id := func(x, y, z int) int {
		x, y, z = (x+nx)%nx, (y+ny)%ny, (z+nz)%nz
		return (z*ny+y)*nx + x
	}
	out := make([][]int, ranks)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				r := id(x, y, z)
				if r >= ranks {
					continue
				}
				seen := map[int]struct{}{r: {}}
				add := func(n int) {
					if n < ranks {
						if _, dup := seen[n]; !dup {
							seen[n] = struct{}{}
							out[r] = append(out[r], n)
						}
					}
				}
				for dz := -1; dz <= 1; dz++ {
					for dy := -1; dy <= 1; dy++ {
						for dx := -1; dx <= 1; dx++ {
							if dx == 0 && dy == 0 && dz == 0 {
								continue
							}
							if !corners && abs(dx)+abs(dy)+abs(dz) != 1 {
								continue
							}
							add(id(x+dx, y+dy, z+dz))
						}
					}
				}
			}
		}
	}
	return out
}

// gridDims factors ranks into the most cubic nx×ny×nz ≥ ranks grid.
func gridDims(ranks int) (int, int, int) {
	best := [3]int{ranks, 1, 1}
	bestScore := ranks * ranks
	for nx := 1; nx*nx*nx <= ranks*4; nx++ {
		for ny := nx; nx*ny <= ranks; ny++ {
			nz := (ranks + nx*ny - 1) / (nx * ny)
			if nz < ny {
				continue
			}
			score := (nz - nx) * (nz - nx)
			if nx*ny*nz >= ranks && score < bestScore {
				best = [3]int{nx, ny, nz}
				bestScore = score
			}
		}
	}
	return best[0], best[1], best[2]
}

// randomK builds a symmetric random graph with average degree ≈ k.
// Each neighbor list is sorted so Generate's event order depends only
// on the seed, not on map iteration order.
func randomK(ranks, k int, rng *rand.Rand) [][]int {
	if k >= ranks {
		k = ranks - 1
	}
	adj := make([]map[int]struct{}, ranks)
	for r := range adj {
		adj[r] = make(map[int]struct{})
	}
	for r := 0; r < ranks; r++ {
		for len(adj[r]) < k/2+1 {
			p := rng.Intn(ranks)
			if p == r {
				continue
			}
			adj[r][p] = struct{}{}
			adj[p][r] = struct{}{}
		}
	}
	out := make([][]int, ranks)
	for r := range adj {
		for p := range adj[r] {
			out[r] = append(out[r], p)
		}
		sort.Ints(out[r])
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
