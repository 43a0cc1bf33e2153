package bench

import (
	"fmt"
	"io"

	"simtmp/internal/arch"
	"simtmp/internal/match"
	"simtmp/internal/simt"
	"simtmp/internal/workload"
)

// Fig4Point is one point of Figure 4: single-CTA matrix matching rate
// versus queue length, per architecture.
type Fig4Point struct {
	Arch     string
	QueueLen int
	RateM    float64
}

// Figure4 sweeps the MPI-compliant matrix matcher with one CTA over
// queue lengths 16..4096 on all three architectures (the paper plots
// 16..1024 and discusses the degradation beyond), using all host
// cores.
func Figure4() []Fig4Point {
	lengths := []int{16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
	archs := arch.All()
	out := make([]Fig4Point, len(archs)*len(lengths))
	simt.ParallelFor(len(out), 0, func(k int) {
		a, n := archs[k/len(lengths)], lengths[k%len(lengths)]
		m := match.NewMatrixMatcher(match.MatrixConfig{Arch: a})
		msgs, reqs := workload.FullyMatching(n, int64(n))
		res := mustMatch(m, msgs, reqs)
		out[k] = Fig4Point{
			Arch: a.Generation.String(), QueueLen: n,
			RateM: mrate(res.Assignment.Matched(), res.SimSeconds),
		}
	})
	return out
}

// PrintFigure4 formats the Figure 4 series.
func PrintFigure4(w io.Writer, pts []Fig4Point) {
	header(w, "Figure 4: single-CTA matrix matching rate (MPI-compliant)")
	fmt.Fprintln(w, "arch      queue_len  matches/s")
	for _, p := range pts {
		fmt.Fprintf(w, "%-9s %9d  %6.2fM\n", p.Arch, p.QueueLen, p.RateM)
	}
}

// Fig5Point is one point of Figure 5: partitioned matching rate versus
// total queue length for a queue count, with the CTA count annotated.
type Fig5Point struct {
	Queues   int
	TotalLen int
	CTAs     int
	RateM    float64
}

// Figure5 sweeps the rank-partitioned matcher on Pascal across queue
// counts {1..32} and total lengths, allocating ceil(len/1024) CTAs as
// the paper's annotations do, using all host cores.
func Figure5() []Fig5Point { return Figure5On(arch.PascalGTX1080()) }

// Figure5On runs the Figure 5 sweep on an arbitrary architecture (the
// paper reports the GTX1080 curve plus average speedups of 2.12× over
// the K80 and 1.56× over the M40).
func Figure5On(a *arch.Arch) []Fig5Point {
	queues := []int{1, 2, 4, 8, 16, 32}
	lengths := []int{512, 1024, 2048, 4096, 8192}
	out := make([]Fig5Point, len(queues)*len(lengths))
	simt.ParallelFor(len(out), 0, func(k int) {
		q, n := queues[k/len(lengths)], lengths[k%len(lengths)]
		ctas := (n + 1023) / 1024
		msgs, reqs := workload.Generate(workload.Config{N: n, Peers: 64, Tags: 32, Seed: int64(n)})
		p := match.NewPartitionedMatcher(match.PartitionedConfig{Arch: a, Queues: q, MaxCTAs: ctas})
		res := mustMatch(p, msgs, reqs)
		out[k] = Fig5Point{
			Queues: q, TotalLen: n, CTAs: ctas,
			RateM: mrate(res.Assignment.Matched(), res.SimSeconds),
		}
	})
	return out
}

// PrintFigure5 formats the Figure 5 series.
func PrintFigure5(w io.Writer, pts []Fig5Point) {
	header(w, "Figure 5: rank-partitioned matching rate (Pascal GTX1080)")
	fmt.Fprintln(w, "queues  total_len  ctas  matches/s")
	for _, p := range pts {
		fmt.Fprintf(w, "%6d  %9d  %4d  %7.2fM\n", p.Queues, p.TotalLen, p.CTAs, p.RateM)
	}
}

// Figure5Speedups returns the average Pascal speedup over Kepler and
// Maxwell across the Figure 5 sweep (paper: 2.12× and 1.56×).
func Figure5Speedups() (overKepler, overMaxwell float64) {
	pascal := Figure5On(arch.PascalGTX1080())
	kepler := Figure5On(arch.KeplerK80())
	maxwell := Figure5On(arch.MaxwellM40())
	var sk, sm float64
	for i := range pascal {
		sk += pascal[i].RateM / kepler[i].RateM
		sm += pascal[i].RateM / maxwell[i].RateM
	}
	n := float64(len(pascal))
	return sk / n, sm / n
}

// Fig6bPoint is one point of Figure 6b: hash-table matching rate
// versus element count and CTA count, per architecture.
type Fig6bPoint struct {
	Arch     string
	Elements int
	CTAs     int
	RateM    float64
	Iters    int
}

// Figure6b sweeps the hash matcher (random unique tuples, the paper's
// setup) over element counts and CTA counts on all architectures,
// using all host cores.
func Figure6b() []Fig6bPoint {
	elements := []int{64, 256, 1024, 4096, 8192}
	ctas := []int{1, 4, 32}
	archs := arch.All()
	out := make([]Fig6bPoint, len(archs)*len(ctas)*len(elements))
	simt.ParallelFor(len(out), 0, func(k int) {
		a := archs[k/(len(ctas)*len(elements))]
		c := ctas[k/len(elements)%len(ctas)]
		n := elements[k%len(elements)]
		h := match.MustHashMatcher(match.HashConfig{Arch: a, CTAs: c})
		msgs, reqs := workload.UniqueTuples(n, int64(n))
		res := mustMatch(h, msgs, reqs)
		out[k] = Fig6bPoint{
			Arch: a.Generation.String(), Elements: n, CTAs: c,
			RateM: mrate(res.Assignment.Matched(), res.SimSeconds),
			Iters: res.Iterations,
		}
	})
	return out
}

// PrintFigure6b formats the Figure 6b series.
func PrintFigure6b(w io.Writer, pts []Fig6bPoint) {
	header(w, "Figure 6b: hash-table matching rate (no wildcards, no ordering)")
	fmt.Fprintln(w, "arch      ctas  elements  matches/s  iters")
	for _, p := range pts {
		fmt.Fprintf(w, "%-9s %4d  %8d  %8.2fM  %5d\n", p.Arch, p.CTAs, p.Elements, p.RateM, p.Iters)
	}
}
