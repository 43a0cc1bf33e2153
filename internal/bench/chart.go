package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Terminal bar charts for the figure runners: the paper's figures are
// log-scale rate plots; a proportional bar per point makes the shapes
// (the Figure 4 plateau and knee, the Figure 5 saturation, the Figure
// 6b growth) visible directly in the report without plotting tools.

// chartWidth is the bar width budget in runes.
const chartWidth = 40

// bar renders a value as a proportional bar against a maximum.
func bar(value, max float64) string {
	if max <= 0 || value <= 0 {
		return ""
	}
	n := int(math.Round(value / max * chartWidth))
	if n < 1 {
		n = 1
	}
	if n > chartWidth {
		n = chartWidth
	}
	return strings.Repeat("█", n)
}

// series is one labelled line of a chart.
type series struct {
	label string
	value float64
}

// renderChart prints labelled proportional bars.
func renderChart(w io.Writer, title string, rows []series) {
	header(w, title)
	max := 0.0
	labelW := 0
	for _, r := range rows {
		if r.value > max {
			max = r.value
		}
		if len(r.label) > labelW {
			labelW = len(r.label)
		}
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-*s %8.2f  %s\n", labelW, r.label, r.value, bar(r.value, max))
	}
}

// ChartFigure4 renders the Figure 4 plateau-and-knee per architecture.
func ChartFigure4(w io.Writer, pts []Fig4Point) {
	var rows []series
	for _, p := range pts {
		rows = append(rows, series{label: fmt.Sprintf("%s @%d", p.Arch, p.QueueLen), value: p.RateM})
	}
	renderChart(w, "Figure 4 shape (M matches/s)", rows)
}

// ChartFigure5 renders the Figure 5 queue-count scaling at the best
// length per queue count.
func ChartFigure5(w io.Writer, pts []Fig5Point) {
	best := map[int]float64{}
	var queues []int
	for _, p := range pts {
		if p.RateM > best[p.Queues] {
			if _, seen := best[p.Queues]; !seen {
				queues = append(queues, p.Queues)
			}
			best[p.Queues] = p.RateM
		}
	}
	sort.Ints(queues)
	var rows []series
	for _, q := range queues {
		rows = append(rows, series{label: fmt.Sprintf("%2d queues", q), value: best[q]})
	}
	renderChart(w, "Figure 5 shape (best M matches/s per queue count)", rows)
}

// ChartFigure6b renders the hash matcher's cross-architecture rates at
// 1024 elements / 32 CTAs.
func ChartFigure6b(w io.Writer, pts []Fig6bPoint) {
	var rows []series
	for _, p := range pts {
		if p.Elements == 1024 && p.CTAs == 32 {
			rows = append(rows, series{label: p.Arch, value: p.RateM})
		}
	}
	renderChart(w, "Figure 6b @1024/32CTAs (M matches/s)", rows)
}

// ChartTableII renders the six-row relaxation ladder.
func ChartTableII(w io.Writer, rows []TableIIRow) {
	var s []series
	for _, r := range rows {
		label := r.DataStructure
		if !r.Ordering {
			label = "hash"
		} else if r.Partitioning {
			label = "partitioned"
		} else {
			label = "matrix"
		}
		if r.Unexpected {
			label += "+unexp"
		}
		s = append(s, series{label: label, value: r.RateM})
	}
	renderChart(w, "Table II relaxation ladder (M matches/s, log story: 6 → 60 → 500)", s)
}
