package bench

import (
	"fmt"
	"io"
	"time"

	"simtmp/internal/envelope"
	"simtmp/internal/match"
)

// EndpointRow is one point of the endpoint-scaling experiment — the
// paper's core motivation made quantitative: "a node's CPU generally
// runs tens of processes, while GPUs run grids of thousands of
// cooperative thread arrays (CTAs), each being independently executed.
// It seems fair to presume that many of these CTAs need to send and
// receive messages. Thus, the matching of messages becomes a major
// limiter for high message rates."
//
// Each endpoint (CTA) exchanges MsgsPerEndpoint messages per BSP
// superstep; the engine must match Endpoints×MsgsPerEndpoint headers
// per superstep. SuperstepUS is the resulting matching time per
// superstep; SustainableHz is how many supersteps per second the
// engine's matching alone would allow.
type EndpointRow struct {
	Engine          string
	Endpoints       int
	MsgsPerEndpoint int
	SuperstepUS     float64
	SustainableHz   float64
}

// gpuEngines are the three GPU engines, as the endpoint and
// sustained-load sections configure them.
var gpuEngines = []struct {
	name string
	mk   func() match.Matcher
}{
	{"matrix", func() match.Matcher {
		return match.NewMatrixMatcher(match.MatrixConfig{MaxCTAs: 8, Compact: true})
	}},
	{"partitioned", func() match.Matcher {
		return match.NewPartitionedMatcher(match.PartitionedConfig{Queues: 32, MaxCTAs: 8, Compact: true})
	}},
	{"hash", func() match.Matcher {
		return match.MustHashMatcher(match.HashConfig{CTAs: 32})
	}},
}

// endpointCounts are the swept CTA-endpoint counts; every endpoint
// sends endpointMsgs messages per superstep.
var endpointCounts = []int{32, 256, 1024, 4096}

const endpointMsgs = 2

// Endpoints sweeps the CTA-endpoint count for each GPU engine. Every
// endpoint sends two messages per superstep to other endpoints on the
// peer GPU (tags encode the endpoint pair, hash-friendly).
func Endpoints() []EndpointRow {
	var out []EndpointRow
	for _, eng := range gpuEngines {
		for _, eps := range endpointCounts {
			msgs, reqs := endpointWorkload(eps, endpointMsgs)
			res := mustMatch(eng.mk(), msgs, reqs)
			row := EndpointRow{Engine: eng.name, Endpoints: eps, MsgsPerEndpoint: endpointMsgs, SuperstepUS: res.SimSeconds * 1e6}
			if res.SimSeconds > 0 {
				row.SustainableHz = 1 / res.SimSeconds
			}
			out = append(out, row)
		}
	}
	return out
}

// EndpointsCPU runs the same supersteps through the host list matcher,
// whose time is host wall-clock. (The paper avoids CPU-vs-GPU rate
// comparisons; these rows are our extension and depend on the host.)
func EndpointsCPU() []EndpointRow {
	var out []EndpointRow
	for _, eps := range endpointCounts {
		msgs, reqs := endpointWorkload(eps, endpointMsgs)
		m := match.NewListMatcher()
		mustMatch(m, msgs, reqs) // warm up
		iters := 1 + (1 << 21 / (len(msgs) + 1))
		start := time.Now()
		for i := 0; i < iters; i++ {
			mustMatch(m, msgs, reqs)
		}
		sec := time.Since(start).Seconds() / float64(iters)
		out = append(out, EndpointRow{Engine: "cpu-list", Endpoints: eps, MsgsPerEndpoint: endpointMsgs,
			SuperstepUS: sec * 1e6, SustainableHz: 1 / sec})
	}
	return out
}

// endpointWorkload builds one superstep's matching load: eps endpoints
// each sending msgsPer messages, every message uniquely tagged by the
// (endpoint, slot) pair.
func endpointWorkload(eps, msgsPer int) ([]envelope.Envelope, []envelope.Request) {
	n := eps * msgsPer
	msgs := make([]envelope.Envelope, 0, n)
	reqs := make([]envelope.Request, 0, n)
	for e := 0; e < eps; e++ {
		for s := 0; s < msgsPer; s++ {
			src := envelope.Rank(e % 512)
			tag := envelope.Tag((e/512*msgsPer + s*7919 + e) % 60000)
			msgs = append(msgs, envelope.Envelope{Src: src, Tag: tag})
			reqs = append(reqs, envelope.Request{Src: src, Tag: tag})
		}
	}
	return msgs, reqs
}

// PrintEndpoints formats the endpoint-scaling experiment.
func PrintEndpoints(w io.Writer, rows []EndpointRow) {
	header(w, "Endpoint scaling: CTA endpoints per GPU vs matching cost per superstep")
	fmt.Fprintln(w, "engine       endpoints  msgs/step  step-time    sustainable")
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s %10d  %9d  %8.1fµs  %9.0f/s\n",
			r.Engine, r.Endpoints, r.Endpoints*r.MsgsPerEndpoint, r.SuperstepUS, r.SustainableHz)
	}
}
