package telemetry

import (
	"fmt"
	"io"
)

// SummaryExporter renders a human-readable digest: per-track event
// counts by kind, ring drop accounting, and the metric snapshots. Like
// the trace exporters, the output is deterministic for a given input.
type SummaryExporter struct {
	// TrackNames labels the tracks ("track %d" when empty or missing);
	// index = track. Tracks beyond the events' highest still count
	// toward the header's track total, matching the recorder's shape.
	TrackNames []string
	// Dropped is the number of events lost to ring wrap-around.
	Dropped uint64
}

// Export writes the digest of evs and m.
func (x SummaryExporter) Export(w io.Writer, evs []Event, m []Snapshot) error {
	ntracks := len(x.TrackNames)
	for _, ev := range evs {
		if int(ev.Track) >= ntracks {
			ntracks = int(ev.Track) + 1
		}
	}
	if _, err := fmt.Fprintf(w, "telemetry: %d events on %d tracks (%d dropped by ring wrap)\n",
		len(evs), ntracks, x.Dropped); err != nil {
		return err
	}
	type kinds struct{ spans, instants, counters, total int }
	per := make([]kinds, ntracks)
	for _, ev := range evs {
		k := &per[ev.Track]
		k.total++
		switch ev.Kind {
		case KindSpan:
			k.spans++
		case KindCounter:
			k.counters++
		default:
			k.instants++
		}
	}
	for tr := 0; tr < ntracks; tr++ {
		k := per[tr]
		if k.total == 0 {
			continue
		}
		name := ""
		if tr < len(x.TrackNames) {
			name = x.TrackNames[tr]
		}
		if name == "" {
			name = fmt.Sprintf("track %d", tr)
		}
		if _, err := fmt.Fprintf(w, "  %-12s %6d events  (%d spans, %d instants, %d counters)\n",
			name, k.total, k.spans, k.instants, k.counters); err != nil {
			return err
		}
	}
	if len(m) > 0 {
		if _, err := fmt.Fprintln(w, "metrics:"); err != nil {
			return err
		}
	}
	for _, s := range m {
		var err error
		switch s.Kind {
		case "histogram":
			_, err = fmt.Fprintf(w, "  %-9s %-28s %s\n", s.Kind, s.Name, s.Dist)
		default:
			_, err = fmt.Fprintf(w, "  %-9s %-28s %g\n", s.Kind, s.Name, s.Value)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteSummary renders the human-readable digest of the recording —
// SummaryExporter over a consistent snapshot. A nil recorder writes a
// one-line "disabled" note.
func (r *Recorder) WriteSummary(w io.Writer) error {
	if r == nil {
		_, err := fmt.Fprintln(w, "telemetry: disabled")
		return err
	}
	c := r.Snapshot()
	return SummaryExporter{TrackNames: c.TrackNames, Dropped: c.Dropped}.Export(w, c.Events, c.Metrics)
}
