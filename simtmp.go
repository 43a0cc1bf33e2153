// Package simtmp is a reproduction of "Relaxations for
// High-Performance Message Passing on Massively Parallel SIMT
// Processors" (Klenk, Fröning, Eberle, Dennison — IPDPS 2017) as a Go
// library.
//
// It provides, behind one public API:
//
//   - A warp-accurate SIMT execution-model simulator with a calibrated
//     per-architecture timing model (Kepler K80, Maxwell M40, Pascal
//     GTX1080).
//   - The paper's message-matching engines: the CPU list baseline, the
//     fully MPI-compliant matrix scan/reduce algorithm, the
//     rank-partitioned "no source wildcard" relaxation, the two-level
//     hash-table "no ordering" relaxation, and the stream-concurrent
//     engine of the MPIX Stream ordering relaxation.
//   - A message-passing runtime (Runtime) over a simulated global
//     address space with the paper's semantic levels plus the
//     StreamOrdered relaxation (per-stream ordering contexts behind
//     the Endpoint/Stream handle API).
//   - The exascale proxy-application models and trace analysis of §IV,
//     and the benchmark harness regenerating every table and figure.
//
// Quick start:
//
//	rt := simtmp.NewRuntime(simtmp.RuntimeConfig{Level: simtmp.FullMPI, GPUs: 2})
//	rt.Send(0, 1, 42, 0, []byte("hello"))
//	recv, _ := rt.PostRecv(1, 0, 42, 0)
//	rt.Progress()
//	msg, _ := recv.Message()
//
// Or through the endpoint handles (required for stream-qualified
// traffic, available under every level):
//
//	ep, _ := rt.Endpoint(0)
//	st, _ := ep.Open(3) // ordering context 3
//	st.Send(1, 42, 0, []byte("hello"))
package simtmp

import (
	"io"

	"simtmp/internal/arch"
	"simtmp/internal/bench"
	"simtmp/internal/conformance"
	"simtmp/internal/envelope"
	"simtmp/internal/fault"
	"simtmp/internal/match"
	"simtmp/internal/mpx"
	"simtmp/internal/ring"
	"simtmp/internal/soak"
	"simtmp/internal/telemetry"
	"simtmp/internal/trace"
	"simtmp/internal/workload"
)

// Core matching types.
type (
	// Envelope is a message's matching header {src, tag, comm}.
	Envelope = envelope.Envelope
	// Request is a posted receive's matching criteria (may hold
	// wildcards).
	Request = envelope.Request
	// Rank identifies a process/GPU endpoint.
	Rank = envelope.Rank
	// Tag is the user message tag (16-bit budget).
	Tag = envelope.Tag
	// Comm identifies a communicator.
	Comm = envelope.Comm
	// StreamID identifies an ordering context within an endpoint (MPIX
	// Stream). It participates unconditionally in the match predicate —
	// there is no stream wildcard.
	StreamID = envelope.Stream
	// Assignment maps request indices to matched message indices.
	Assignment = match.Assignment
	// MatchResult reports one batch-matching run, including the
	// simulated device time.
	MatchResult = match.Result
	// Matcher is a batch matching engine.
	Matcher = match.Matcher
	// Arch describes a simulated GPU architecture.
	Arch = arch.Arch
)

// Wildcards.
const (
	// AnySource matches any source rank (MPI_ANY_SOURCE).
	AnySource = envelope.AnySource
	// AnyTag matches any tag (MPI_ANY_TAG).
	AnyTag = envelope.AnyTag
	// NoMatch marks an unsatisfied request in an Assignment.
	NoMatch = match.NoMatch
	// DefaultStream is the ordering context the flat (non-stream) API
	// uses; packed headers with a zero stream are bit-identical to the
	// pre-stream encoding.
	DefaultStream = envelope.DefaultStream
	// MaxStream is the largest stream id the 4-bit header field holds.
	MaxStream = envelope.MaxStream
)

// Architectures the paper evaluates.
var (
	// KeplerK80 returns the Tesla K80 (single GK210) configuration.
	KeplerK80 = arch.KeplerK80
	// MaxwellM40 returns the Tesla M40 configuration.
	MaxwellM40 = arch.MaxwellM40
	// PascalGTX1080 returns the GTX1080 configuration.
	PascalGTX1080 = arch.PascalGTX1080
	// Architectures returns all three in generation order.
	Architectures = arch.All
)

// Matching engine configurations.
type (
	// MatrixConfig configures the MPI-compliant matrix matcher.
	MatrixConfig = match.MatrixConfig
	// PartitionedConfig configures the rank-partitioned matcher.
	PartitionedConfig = match.PartitionedConfig
	// HashConfig configures the unordered hash-table matcher.
	HashConfig = match.HashConfig
	// StreamMatcherConfig configures the stream-concurrent matcher of
	// the MPIX Stream relaxation (DESIGN.md §17).
	StreamMatcherConfig = match.StreamConfig
)

// Matching engine constructors.
var (
	// NewListMatcher returns the CPU list-based baseline (§II-C).
	NewListMatcher = match.NewListMatcher
	// NewMatrixMatcher returns the MPI-compliant GPU matcher (§V).
	NewMatrixMatcher = match.NewMatrixMatcher
	// NewPartitionedMatcher returns the no-source-wildcard matcher
	// (§VI-A).
	NewPartitionedMatcher = match.NewPartitionedMatcher
	// NewHashMatcher returns the unordered hash matcher (§VI-C).
	NewHashMatcher = match.NewHashMatcher
	// NewWildcardHashMatcher adds wildcard support to the hash matcher
	// via a side list (§VI-C's "theoretically possible" option).
	NewWildcardHashMatcher = match.NewWildcardHashMatcher
	// NewCommParallelMatcher partitions by communicator — §VI's free
	// top-level parallelism with full MPI semantics.
	NewCommParallelMatcher = match.NewCommParallelMatcher
	// NewBinnedListMatcher is the §III hash-bin CPU optimization.
	NewBinnedListMatcher = match.NewBinnedListMatcher
	// NewStreamMatcher returns the stream-concurrent matcher: one
	// ordered matrix sub-problem per ordering context, no cross-stream
	// synchronization (DESIGN.md §17).
	NewStreamMatcher = match.NewStreamMatcher
	// ReferenceAssignment computes the ordered-matching oracle.
	ReferenceAssignment = match.Reference
)

// Relaxation errors.
var (
	// ErrSourceWildcard reports MPI_ANY_SOURCE under a relaxation that
	// prohibits it.
	ErrSourceWildcard = match.ErrSourceWildcard
	// ErrWildcard reports any wildcard under the unordered relaxation.
	ErrWildcard = match.ErrWildcard
	// ErrUnexpectedMessage reports an unexpected message under the
	// NoUnexpected contract.
	ErrUnexpectedMessage = mpx.ErrUnexpectedMessage
	// ErrStreamClosed reports a stream-qualified operation on a stream
	// that is not open.
	ErrStreamClosed = mpx.ErrStreamClosed
	// ErrBadConfig reports a RuntimeConfig rejected by validation
	// (NewRuntime panics wrapping it; RuntimeConfig.Normalize returns
	// it).
	ErrBadConfig = mpx.ErrBadConfig
)

// Runtime: the message-passing layer.
type (
	// RuntimeConfig parameterizes NewRuntime.
	RuntimeConfig = mpx.Config
	// Runtime is a cluster of simulated GPUs with send/recv semantics.
	Runtime = mpx.Runtime
	// RecvHandle is a posted receive.
	RecvHandle = mpx.Recv
	// Endpoint is one GPU's communication handle (Runtime.Endpoint):
	// the redesigned entry point owning the send/recv verbs, from which
	// stream ordering contexts are opened.
	Endpoint = mpx.Endpoint
	// Stream is one ordering context of an endpoint (Endpoint.Open /
	// Endpoint.Default). Under StreamOrdered, matching order is owed
	// only within a stream; under the strict levels the id is an extra
	// envelope discriminator with ordering preserved.
	Stream = mpx.Stream
	// Level selects a semantic contract (one Table II row group).
	Level = mpx.Level
	// RuntimeStats is the runtime's merged statistics, including the
	// reliability counters.
	RuntimeStats = mpx.Stats
)

// Fault injection and reliability.
type (
	// FaultConfig parameterizes the seeded fault-injection plane; set
	// RuntimeConfig.Fault to enable it.
	FaultConfig = fault.Config
	// FaultInjector is the plane itself (Runtime.Injector exposes it).
	FaultInjector = fault.Injector
	// FaultCounters tallies injected faults per class.
	FaultCounters = fault.Counters
	// StallError reports a drain wedged with work in flight.
	StallError = mpx.StallError
	// DropError reports a message lost after its retry budget.
	DropError = mpx.DropError
)

// Semantic levels (§VI).
const (
	// FullMPI keeps all MPI guarantees.
	FullMPI = mpx.FullMPI
	// NoSourceWildcard prohibits MPI_ANY_SOURCE (rank partitioning).
	NoSourceWildcard = mpx.NoSourceWildcard
	// NoUnexpected additionally requires pre-posted receives.
	NoUnexpected = mpx.NoUnexpected
	// Unordered drops wildcards and ordering (hash matching).
	Unordered = mpx.Unordered
	// StreamOrdered owes matching order only within each MPIX stream
	// (per-endpoint ordering contexts); wildcards stay admitted and
	// range within their stream.
	StreamOrdered = mpx.StreamOrdered
)

// NewRuntime creates a message-passing runtime.
func NewRuntime(cfg RuntimeConfig) *Runtime { return mpx.New(cfg) }

// Persistent channels (DESIGN.md §15): match once, re-fire in O(1)
// through the sealed match-handle cache. Build with
// Runtime.SendInit/RecvInit (MPI_Send_init/Recv_init) or the
// *Partitioned variants (MPI-4 partitioned communication with Pready),
// re-arm with Start, and observe cache behaviour via the
// CacheHits/CacheMisses/CacheSeals/CacheInvalidations counters in
// RuntimeStats. Disable with RuntimeConfig.DisablePersistentCache.
type (
	// SendChannel is a persistent send (MPI_Send_init).
	SendChannel = mpx.PersistentSend
	// RecvChannel is a persistent receive (MPI_Recv_init).
	RecvChannel = mpx.PersistentRecv
	// ChannelStarter is anything StartChannels can re-arm.
	ChannelStarter = mpx.Starter
)

// StartChannels re-arms a set of persistent channels (MPI_Startall).
func StartChannels(handles ...ChannelStarter) error { return mpx.StartAll(handles...) }

// Overload protection: end-to-end credit flow control over bounded
// queues with deterministic shedding. Configure via
// RuntimeConfig.UMQCap/PRQCap/StagingCap + Shed; observe via
// Runtime.FlowControl, Runtime.Health and the Shed*/Nack*/CreditStalls
// counters in RuntimeStats.
type (
	// ShedPolicy selects what a bounded staging queue does when full.
	ShedPolicy = mpx.ShedPolicy
	// HealthState is an endpoint's overload condition
	// (Healthy/Congested/Shedding/Recovering).
	HealthState = mpx.HealthState
	// HealthConfig tunes the health state machine's occupancy
	// thresholds and hysteresis.
	HealthConfig = mpx.HealthConfig
	// EndpointHealth is one endpoint's health snapshot
	// (Runtime.Health).
	EndpointHealth = mpx.EndpointHealth
	// FlowControlInfo describes the runtime's active flow-control
	// configuration (Runtime.FlowControl).
	FlowControlInfo = mpx.FlowControlInfo
	// RingCreditStats is the typed credit-conservation view of one
	// ring buffer.
	RingCreditStats = ring.CreditStats
	// SoakOverloadConfig shapes a soak run's overload excursion
	// (SoakConfig.Overload): rate multiplier, queue caps, shed policy
	// and the recovery SLO.
	SoakOverloadConfig = soak.OverloadConfig
)

// Shed policies and health states.
const (
	// ShedReject refuses the send with ErrBackpressure.
	ShedReject = mpx.ShedReject
	// ShedDropOldest parks the oldest staged frame for NACK/deadline
	// recovery.
	ShedDropOldest = mpx.ShedDropOldest
	// ShedDropNewest parks the newly staged frame instead.
	ShedDropNewest = mpx.ShedDropNewest

	HealthHealthy    = mpx.Healthy
	HealthCongested  = mpx.Congested
	HealthShedding   = mpx.Shedding
	HealthRecovering = mpx.Recovering
)

var (
	// ErrBackpressure is the typed refusal returned by Send (ShedReject
	// at a full staging queue) and PostRecv (full PRQ).
	ErrBackpressure = mpx.ErrBackpressure
	// SlowReceiverFaultProfile is the tracked slow-consumer overload
	// brew (drain-rate collapse episodes).
	SlowReceiverFaultProfile = fault.SlowReceiverProfile
	// ReceiverStallFaultProfile is the tracked hard-stall overload brew.
	ReceiverStallFaultProfile = fault.ReceiverStallProfile
	// ChaosBackpressureMix is the chaos brew paired with bounded-queue
	// workloads.
	ChaosBackpressureMix = conformance.ChaosBackpressureMix
	// ChaosBackpressureWorkload replays one bounded-queue chaos
	// workload (the failure handle's recipe).
	ChaosBackpressureWorkload = conformance.ChaosBackpressureWorkload
	// RunChaosBackpressure runs the bounded-queue chaos matrix.
	RunChaosBackpressure = conformance.RunChaosBackpressure
	// CheckBackpressureCoverage asserts a backpressure chaos run
	// exercised the overload machinery.
	CheckBackpressureCoverage = conformance.CheckBackpressureCoverage
)

// Telemetry: the deterministic flight recorder, metrics registry and
// the unified Exporter family (Perfetto trace export, human-readable
// summary, chunked live streaming). Set RuntimeConfig.Telemetry to
// record a run; the recorder stamps only simulated time, so replays of
// a seeded workload export byte-identical traces — streamed or
// post-hoc.
type (
	// TelemetryConfig enables and sizes the flight recorder; its
	// Stream field attaches a live streamer.
	TelemetryConfig = telemetry.Config
	// TelemetryRecorder is the per-runtime flight recorder (nil is a
	// valid no-op recorder).
	TelemetryRecorder = telemetry.Recorder
	// TelemetryEvent is one recorded event.
	TelemetryEvent = telemetry.Event
	// MetricSnapshot is one exported metric value.
	MetricSnapshot = telemetry.Snapshot
	// TelemetryCapture is a copy-on-read snapshot of a recorder
	// (Recorder.Snapshot) — export mid-run without stopping it.
	TelemetryCapture = telemetry.Capture
	// TelemetryExporter renders events and metrics to a writer; the
	// implementations are PerfettoExporter, SummaryExporter and
	// StreamExporter.
	TelemetryExporter = telemetry.Exporter
	// PerfettoExporter writes Chrome/Perfetto trace-event JSON.
	PerfettoExporter = telemetry.PerfettoExporter
	// SummaryExporter writes the human-readable telemetry digest.
	SummaryExporter = telemetry.SummaryExporter
	// StreamExporter writes the Perfetto trace as watermark-sized
	// chunks — the one-shot form of the live streamer.
	StreamExporter = telemetry.StreamExporter
	// TelemetryStreamConfig parameterizes live streaming
	// (TelemetryConfig.Stream or NewTelemetryStreamer).
	TelemetryStreamConfig = telemetry.StreamConfig
	// TelemetryStreamer drains a recorder to an io.Writer as chunked
	// trace-event JSON while the runtime progresses.
	TelemetryStreamer = telemetry.Streamer
	// TelemetryStreamStats accounts a streamer's chunks, bytes and
	// drop counters.
	TelemetryStreamStats = telemetry.StreamStats
	// TraceFlags is the shared -trace.* CLI flag surface.
	TraceFlags = telemetry.CLIFlags
)

var (
	// NewTelemetryRecorder builds a standalone recorder (nil unless
	// enabled).
	NewTelemetryRecorder = telemetry.New
	// NewTelemetryStreamer attaches a live streamer to a recorder.
	NewTelemetryStreamer = telemetry.NewStreamer
	// ChaosMix is the default chaos-conformance fault brew.
	ChaosMix = conformance.ChaosMix
	// ChaosWorkloadTraced replays one seeded chaos workload with the
	// flight recorder attached.
	ChaosWorkloadTraced = conformance.ChaosWorkloadTraced
	// RunChaosStream streams a whole chaos soak bounded-memory; see
	// conformance.RunChaosStream.
	RunChaosStream = conformance.RunChaosStream
)

// ChaosStreamReport accounts one streamed chaos soak.
type ChaosStreamReport = conformance.StreamSoakReport

// RunChaosTrace replays seeded chaos workloads (FullMPI semantics,
// ChaosMix faults) and returns the flight recorder of the first one
// whose run retransmitted — so the exported trace shows the full
// fault → retransmit → match-pass chain on one simulated-time axis.
// The scan is deterministic per seed; the same seed always returns the
// same workload's byte-identical trace.
//
// tcfg parameterizes the recorder (the zero value selects defaults;
// Enabled is forced on). A tcfg.Stream writer receives the chosen
// workload's trace live: the scan itself runs without telemetry, and
// only the chosen workload is then replayed under tcfg, so the
// streamed bytes cover exactly the workload the recorder holds.
func RunChaosTrace(seed int64, tcfg TelemetryConfig) (*TelemetryRecorder, error) {
	pick := 0
	for i := 0; i < 64; i++ {
		st, _, err := conformance.ChaosWorkload(FullMPI, seed, i, ChaosMix())
		if err != nil {
			return nil, err
		}
		if st.Retries > 0 {
			pick = i
			break
		}
	}
	_, _, rec, err := conformance.ChaosWorkloadTraced(FullMPI, seed, pick, ChaosMix(), tcfg)
	return rec, err
}

// Workload generation for experiments.
type WorkloadConfig = workload.Config

var (
	// GenerateWorkload produces a synthetic matching workload.
	GenerateWorkload = workload.Generate
	// FullyMatchingWorkload is the paper's micro-benchmark workload.
	FullyMatchingWorkload = workload.FullyMatching
	// UniqueTupleWorkload is the Figure 6b hash-friendly workload.
	UniqueTupleWorkload = workload.UniqueTuples
)

// Trace tooling.
type (
	// Trace is a DUMPI-like communication event stream.
	Trace = trace.Trace
	// TraceEvent is one send or posted receive.
	TraceEvent = trace.Event
	// TraceStats is the §IV characterization of a trace.
	TraceStats = trace.Stats
)

var (
	// ParseTrace reads the line-oriented trace format.
	ParseTrace = trace.Parse
	// AnalyzeTrace reconstructs UMQ/PRQ and derives statistics.
	AnalyzeTrace = trace.Analyze
)

// Experiments re-exported from the harness, one per paper table or
// figure. Each returns typed rows; the Print* helpers render the same
// series the paper reports.
var (
	TableI               = bench.TableI
	Figure2              = bench.Figure2
	Figure4              = bench.Figure4
	Figure5              = bench.Figure5
	Figure5Speedups      = bench.Figure5Speedups
	Figure6a             = bench.Figure6a
	Figure6b             = bench.Figure6b
	TableII              = bench.TableII
	CPUReference         = bench.CPUReference
	AblationCompaction   = bench.AblationCompaction
	AblationFraction     = bench.AblationMatchFraction
	OrderSensitivity     = bench.OrderSensitivity
	AblationWildcardHash = bench.AblationWildcardHash
	Applicability        = bench.Applicability
	Streaming            = bench.Streaming
	MessageSizes         = bench.MessageSizes
	SMSweep              = bench.SMSweep
	Endpoints            = bench.Endpoints
	CommParallel         = bench.CommParallel
	AppSizes             = bench.AppSizes
	AblationWindow       = bench.AblationWindow
	HashAblation         = bench.HashAblation
	Chaos                = bench.Chaos
	PrintChaos           = bench.PrintChaos
	PrintTableI          = bench.PrintTableI
	PrintFigure2         = bench.PrintFigure2
	PrintFigure4         = bench.PrintFigure4
	PrintFigure5         = bench.PrintFigure5
	PrintFigure6a        = bench.PrintFigure6a
	PrintFigure6b        = bench.PrintFigure6b
	PrintTableII         = bench.PrintTableII
	PrintCPUReference    = bench.PrintCPUReference
	PrintApplicability   = bench.PrintApplicability
	PrintStreaming       = bench.PrintStreaming
	PrintMessageSizes    = bench.PrintMessageSizes
	PrintSMSweep         = bench.PrintSMSweep
	PrintEndpoints       = bench.PrintEndpoints
	PrintCommParallel    = bench.PrintCommParallel
	PrintAppSizes        = bench.PrintAppSizes
	ChartFigure4         = bench.ChartFigure4
	ChartFigure5         = bench.ChartFigure5
	ChartFigure6b        = bench.ChartFigure6b
	ChartTableII         = bench.ChartTableII
	// WriteCSV renders any experiment's rows as CSV.
	WriteCSV        = bench.WriteCSV
	Figure4Workers  = bench.Figure4Workers
	Figure5Workers  = bench.Figure5Workers
	Figure6bWorkers = bench.Figure6bWorkers
	// StreamScaling measures the MPIX Stream relaxation across stream
	// counts against the full-MPI matrix on identical workloads.
	StreamScaling      = bench.StreamScaling
	PrintStreamScaling = bench.PrintStreamScaling
	PrintAblations     = printAblations
	// StreamWorkloadAt replays workload i of the stream-qualified
	// conformance run (envelopes spread over 2..8 streams).
	StreamWorkloadAt          = conformance.StreamWorkloadAt
	VerifyOrderedResult       = match.VerifyOrdered
	VerifyUnorderedResult     = match.VerifyUnordered
	VerifyStreamOrderedResult = match.VerifyStreamOrdered
)

// Open-loop traffic soak (cmd/matchbench -soak): arrivals at a
// configured rate in simulated time, per-message arrival→match latency
// SLOs, and multi-seed suites.
type (
	// SoakConfig parameterizes one open-loop soak run.
	SoakConfig = soak.Config
	// SoakReport is one soak run's outcome (quantiles, peaks, stats).
	SoakReport = soak.Report
	// SoakQuantiles is a latency distribution summary in µs.
	SoakQuantiles = soak.Quantiles
	// SoakBurstConfig shapes the MMPP-2 bursty arrival process.
	SoakBurstConfig = soak.BurstConfig
	// SoakProcess selects the arrival process (SoakPoisson/SoakBursty).
	SoakProcess = soak.Process
	// SoakSuiteConfig parameterizes a multi-seed soak suite.
	SoakSuiteConfig = soak.SuiteConfig
	// SoakSuiteReport aggregates a multi-seed soak.
	SoakSuiteReport = soak.SuiteReport
)

// Arrival process selectors.
const (
	SoakPoisson = soak.Poisson
	SoakBursty  = soak.Bursty
)

var (
	// RunSoak executes one open-loop soak run.
	RunSoak = soak.Run
	// RunSoakSuite executes a multi-seed soak suite.
	RunSoakSuite = soak.RunSuite
)

// Persistent-channel benchmarks (cmd/matchbench -persistent): the seal
// cache's first-iteration cost, steady-state re-fire rate and hit
// rate.
type (
	// PersistSweepRow is one row of the -persistent iteration sweep.
	PersistSweepRow = bench.PersistSweepPoint
)

var (
	// PersistSweep runs the halo proxy across iteration counts.
	PersistSweep = bench.PersistSweep
	// PrintPersistSweep renders the -persistent table.
	PrintPersistSweep = bench.PrintPersistSweep
	// RunPersistentConformance runs the differential persistent suite
	// (cached re-fire vs full-engine replay, byte-equal).
	RunPersistentConformance = conformance.RunPersistent
	// CheckPersistentCoverage asserts a persistent run was not vacuous.
	CheckPersistentCoverage = conformance.CheckPersistentCoverage
)

// printAblations renders all four ablation studies.
func printAblations(w io.Writer) {
	bench.PrintAblationCompaction(w, bench.AblationCompaction())
	bench.PrintAblationMatchFraction(w, bench.AblationMatchFraction())
	bench.PrintOrderSensitivity(w, bench.OrderSensitivity())
	bench.PrintHashAblation(w, bench.HashAblation())
	bench.PrintAblationWildcardHash(w, bench.AblationWildcardHash())
	bench.PrintAblationWindow(w, bench.AblationWindow())
}
