package telemetry

import (
	"flag"
	"fmt"
	"io"
	"os"
)

// CLIFlags is the -trace.* flag surface of cmd/matchbench: the
// command registers it, tests Active, and delegates the whole export
// flow (post-hoc trace, live stream, chunk sidecar, summary) to Run.
type CLIFlags struct {
	// Path is -trace: the post-hoc Perfetto trace-event JSON path.
	Path string
	// Seed is -trace.seed: the chaos seed of the traced workload.
	Seed int64
	// Summary is -trace.summary: print the telemetry digest to stdout.
	Summary bool
	// StreamPath is -trace.stream: stream the traced workload live to
	// this path as chunked Perfetto trace-event JSON.
	StreamPath string
	// ChunkPath is -trace.chunks: with -trace.stream, also append each
	// chunk as one standalone JSON array per line (NDJSON).
	ChunkPath string
	// Ring is -trace.ring: per-track ring capacity (0 = default).
	Ring int
	// Watermark is -trace.watermark: events per streamed chunk
	// (0 = default).
	Watermark int
}

// Register installs the trace flags on fs.
func (f *CLIFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Path, "trace", "", "record one chaos workload and write its Perfetto trace-event JSON to this path")
	fs.Int64Var(&f.Seed, "trace.seed", 1, "chaos seed for the traced workload (same seed, byte-identical trace)")
	fs.BoolVar(&f.Summary, "trace.summary", false, "print the traced workload's telemetry summary (usable without -trace)")
	fs.StringVar(&f.StreamPath, "trace.stream", "", "stream the traced workload live to this path as chunked Perfetto trace-event JSON")
	fs.StringVar(&f.ChunkPath, "trace.chunks", "", "with -trace.stream, also write each chunk as one standalone JSON array per line")
	fs.IntVar(&f.Ring, "trace.ring", 0, "per-track flight-recorder ring capacity in events (0 = default 8192)")
	fs.IntVar(&f.Watermark, "trace.watermark", 0, "events per streamed chunk under -trace.stream (0 = default 256)")
}

// Active reports whether any trace output was requested.
func (f *CLIFlags) Active() bool {
	return f.Path != "" || f.Summary || f.StreamPath != ""
}

// Run executes the trace request: it builds the telemetry Config —
// attaching a live stream when -trace.stream is set — calls record to
// run the traced workload under that config, and writes the requested
// outputs. record returns the finished recorder (its stream, if any,
// still open; Run closes it). tool prefixes diagnostics on stderr. The
// return value is the process exit code.
func (f *CLIFlags) Run(stdout, stderr io.Writer, tool string, record func(Config) (*Recorder, error)) int {
	fail := func(err error) int {
		fmt.Fprintf(stderr, "%s: %v\n", tool, err)
		return 1
	}
	cfg := Config{Enabled: true, BufferSize: f.Ring}
	if f.StreamPath != "" {
		streamFile, err := os.Create(f.StreamPath)
		if err != nil {
			return fail(err)
		}
		defer streamFile.Close()
		sc := &StreamConfig{W: streamFile, Watermark: f.Watermark}
		if f.ChunkPath != "" {
			chunkFile, err := os.Create(f.ChunkPath)
			if err != nil {
				return fail(err)
			}
			defer chunkFile.Close()
			sc.OnChunk = func(chunk []byte) { _, _ = chunkFile.Write(chunk) }
		}
		cfg.Stream = sc
	}
	rec, err := record(cfg)
	if err != nil {
		return fail(err)
	}
	if err := rec.CloseStream(); err != nil {
		return fail(err)
	}
	if f.StreamPath != "" {
		st := rec.Stream().Stats()
		fmt.Fprintf(stdout, "stream: wrote %s (%d chunks, %d events, %d bytes, seed %d)\n",
			f.StreamPath, st.Chunks, st.Events, st.Bytes, f.Seed)
		if st.Dropped > 0 {
			fmt.Fprintf(stderr, "%s: stream missed %d events to ring wrap (raise -trace.ring)\n", tool, st.Dropped)
		}
	}
	if f.Path != "" {
		pf, err := os.Create(f.Path)
		if err != nil {
			return fail(err)
		}
		werr := rec.WriteTrace(pf)
		if cerr := pf.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fail(werr)
		}
		fmt.Fprintf(stdout, "trace: wrote %s (%d events, seed %d)\n", f.Path, rec.Len(), f.Seed)
	}
	if f.Summary {
		if err := rec.WriteSummary(stdout); err != nil {
			return fail(err)
		}
	}
	return 0
}
