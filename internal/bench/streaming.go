package bench

import (
	"fmt"
	"io"

	"simtmp/internal/envelope"
	"simtmp/internal/match"
	"simtmp/internal/simt"
)

// StreamRow reports one point of the sustained-load experiment: an
// engine driven by a continuous arrival stream at a fixed offered
// rate. The paper argues message rate is key (§VII); this experiment
// shows the *dynamics*: once the offered rate exceeds an engine's
// capacity, the backlog grows, queues lengthen, and (for the matrix
// engine, whose rate degrades with queue depth past 1024) service
// collapses — the relaxed engines degrade gracefully instead.
type StreamRow struct {
	Engine       string
	OfferedM     float64 // offered arrival rate, M msgs/s
	DeliveredM   float64 // sustained matching rate, M matches/s
	FinalBacklog int     // messages pending when the run ended
	Stable       bool    // backlog stayed bounded
}

// backlogCap is the queue size at which a run is declared unstable
// (a real receiver would be dropping or flow-controlling by then).
const backlogCap = 8192

// streamSource produces an endless fully-matching message/request
// stream with unique-enough tuples.
type streamSource struct {
	seq   int
	peers int
}

func (s *streamSource) next(n int) ([]envelope.Envelope, []envelope.Request) {
	msgs := make([]envelope.Envelope, n)
	reqs := make([]envelope.Request, n)
	for i := 0; i < n; i++ {
		src := envelope.Rank(s.seq % s.peers)
		tag := envelope.Tag((s.seq / s.peers) % 60000)
		msgs[i] = envelope.Envelope{Src: src, Tag: tag}
		reqs[i] = envelope.Request{Src: src, Tag: tag}
		s.seq++
	}
	return msgs, reqs
}

// runStream drives one engine at one offered rate for the given number
// of rounds and returns the row.
func runStream(name string, m match.Matcher, offeredM float64, rounds int) StreamRow {
	src := &streamSource{peers: 32}
	var pendM []envelope.Envelope
	var pendR []envelope.Request

	// Prime with one service quantum's worth.
	batch := 256
	msgs, reqs := src.next(batch)
	pendM, pendR = append(pendM, msgs...), append(pendR, reqs...)

	totalMatched := 0
	totalSeconds := 0.0
	stable := true
	for round := 0; round < rounds; round++ {
		res, err := m.Match(pendM, pendR)
		if err != nil {
			panic(fmt.Sprintf("bench: stream %s: %v", name, err))
		}
		matched := res.Assignment.Matched()
		totalMatched += matched
		totalSeconds += res.SimSeconds

		// Remove matched pairs.
		usedM := make([]bool, len(pendM))
		var nextR []envelope.Request
		for ri, mi := range res.Assignment {
			if mi == match.NoMatch {
				nextR = append(nextR, pendR[ri])
			} else {
				usedM[mi] = true
			}
		}
		var nextM []envelope.Envelope
		for i, used := range usedM {
			if !used {
				nextM = append(nextM, pendM[i])
			}
		}
		pendM, pendR = nextM, nextR

		// Arrivals during the service interval (feedback: a slower
		// round accumulates more arrivals).
		arrivals := int(offeredM * 1e6 * res.SimSeconds)
		if arrivals < 1 {
			arrivals = 1
		}
		if len(pendM)+arrivals > backlogCap {
			arrivals = backlogCap - len(pendM)
			stable = false
		}
		if arrivals > 0 {
			msgs, reqs := src.next(arrivals)
			pendM, pendR = append(pendM, msgs...), append(pendR, reqs...)
		}
	}
	row := StreamRow{
		Engine: name, OfferedM: offeredM,
		FinalBacklog: len(pendM), Stable: stable && len(pendM) < backlogCap/2,
	}
	if totalSeconds > 0 {
		row.DeliveredM = float64(totalMatched) / totalSeconds / 1e6
	}
	return row
}

// Streaming sweeps offered load over the three GPU engines.
func Streaming() []StreamRow {
	const rounds, points = 25, 3
	// Offered loads per engine of gpuEngines, M msgs/s.
	offered := [][points]float64{{2, 5, 10}, {10, 40, 100}, {100, 400, 900}}
	out := make([]StreamRow, len(gpuEngines)*points)
	simt.ParallelFor(len(out), 0, func(k int) {
		e := gpuEngines[k/points]
		out[k] = runStream(e.name, e.mk(), offered[k/points][k%points], rounds)
	})
	return out
}

// PrintStreaming formats the sustained-load experiment.
func PrintStreaming(w io.Writer, rows []StreamRow) {
	header(w, "Sustained load: offered vs delivered rate under continuous arrivals")
	fmt.Fprintln(w, "engine       offered    delivered  backlog  stable")
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s %7.0fM  %9.2fM  %7d  %v\n",
			r.Engine, r.OfferedM, r.DeliveredM, r.FinalBacklog, r.Stable)
	}
}
