// Package mpx ("message passing, relaxed") is the runtime tying the
// substrates together: a GAS cluster of simulated GPUs, a matching
// engine per GPU, and a send/recv API offering the paper's semantic
// levels. Each level corresponds to one row group of Table II (plus
// the MPIX Stream extension):
//
//	FullMPI          wildcards + ordering + unexpected msgs   matrix engine
//	NoSourceWildcard rank partitioning possible               partitioned engine
//	NoUnexpected     every message must find a posted recv    matrix/partitioned
//	Unordered        no wildcards, no ordering                hash engine
//	StreamOrdered    ordering only within each stream          stream engine
//
// The runtime validates at the API boundary what each relaxation
// prohibits, so a program written against a level is guaranteed to be
// portable to the corresponding hardware matcher.
//
// Endpoints and streams (endpoint.go): Endpoint is the per-GPU handle
// owning the communication verbs; Open carves stream-qualified
// ordering contexts out of it. The flat Runtime methods (Send,
// PostRecv, SendInit, RecvInit) remain as thin wrappers over the
// default stream of the addressed endpoint.
package mpx

import (
	"errors"
	"fmt"
	"sync"

	"simtmp/internal/arch"
	"simtmp/internal/envelope"
	"simtmp/internal/fault"
	"simtmp/internal/gas"
	"simtmp/internal/match"
	"simtmp/internal/proto"
	"simtmp/internal/simt"
	"simtmp/internal/telemetry"
	"simtmp/internal/timing"
)

// Level selects the semantic contract.
type Level int

const (
	// FullMPI keeps every MPI guarantee (wildcards, ordering,
	// unexpected messages).
	FullMPI Level = iota
	// NoSourceWildcard prohibits MPI_ANY_SOURCE, enabling rank
	// partitioning (§VI-A).
	NoSourceWildcard
	// NoUnexpected additionally requires receives to be posted before
	// the matching message arrives (§VI-B).
	NoUnexpected
	// Unordered prohibits wildcards and drops ordering guarantees,
	// enabling hash matching (§VI-C). Tags must uniquely identify
	// messages within a source.
	Unordered
	// StreamOrdered keeps wildcards and unexpected messages but
	// guarantees matching order only within each endpoint stream (the
	// MPIX Stream relaxation): sends on one stream match posted
	// receives of that stream in posted order, while independent
	// streams progress concurrently — both on the wire (per-stream
	// release, no head-of-line blocking across streams) and in the
	// matcher (one ordered sub-problem per stream).
	StreamOrdered
)

// String names the level.
func (l Level) String() string {
	switch l {
	case FullMPI:
		return "full-mpi"
	case NoSourceWildcard:
		return "no-src-wildcard"
	case NoUnexpected:
		return "no-unexpected"
	case Unordered:
		return "unordered"
	case StreamOrdered:
		return "stream-ordered"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Errors surfaced by the runtime.
var (
	// ErrUnexpectedMessage reports a message that arrived without a
	// posted receive under the NoUnexpected contract.
	ErrUnexpectedMessage = errors.New("mpx: unexpected message under no-unexpected contract")
	// ErrNotDelivered reports reading a receive handle before its
	// message was matched.
	ErrNotDelivered = errors.New("mpx: receive not yet delivered")
	// ErrStreamClosed reports a stream-qualified operation on a stream
	// the endpoint has not opened (or has closed).
	ErrStreamClosed = errors.New("mpx: stream not open")
	// ErrBadConfig is the typed sentinel Config.Normalize wraps when a
	// field is nonsensical (negative sizes, unknown level or policy).
	ErrBadConfig = errors.New("mpx: invalid config")
)

// Config parameterizes a runtime.
type Config struct {
	// Level is the semantic contract (default FullMPI).
	Level Level
	// Arch is the simulated GPU architecture (default Pascal GTX1080).
	Arch *arch.Arch
	// GPUs is the cluster size (default 2).
	GPUs int
	// Queues is the partition count for NoSourceWildcard (default 8).
	Queues int
	// Streams is the number of concurrent matching lanes the
	// StreamOrdered engine runs (default 8, capped at the wire's
	// 16-stream namespace). Ignored by the other levels; an endpoint
	// may always open any of the 16 wire streams regardless.
	Streams int
	// QueueCap bounds each GPU's message queue (default 4096).
	QueueCap int
	// Link models the interconnect for payload movement (zero value:
	// NVLink).
	Link proto.Link
	// Protocol selects eager/rendezvous per payload size (zero value:
	// 8 KiB eager threshold).
	Protocol proto.Policy

	// Fault, when non-nil, wraps the cluster in the fault-injection
	// plane (internal/fault) with this configuration. Nil means a
	// lossless wire.
	Fault *fault.Config
	// Window bounds transmitted-but-unacked frames per (src,dst) flow
	// (default 64).
	Window int
	// RetryLimit is the transmission budget per frame before Drain and
	// Progress surface a *DropError (default 16).
	RetryLimit int
	// StallPatience is the number of consecutive progress-free steps
	// Drain tolerates with work still in flight before returning a
	// *StallError (default 100).
	StallPatience int

	// EngineWorkers bounds the host goroutines each matching engine
	// uses to simulate its device-parallel phases (0 = GOMAXPROCS, the
	// engines' own default; 1 forces sequential execution). Engine
	// results are bit-identical either way; the knob exists so
	// determinism tests and load drivers can pin the execution mode.
	EngineWorkers int

	// OnDeliver, when set, is invoked once per delivered receive during
	// a progress step, with the handle and the simulated transport time
	// of the delivering step. It runs with the runtime lock held, so
	// the callback must not call back into the runtime (record and
	// return). Load drivers (internal/soak) use it to capture
	// per-message arrival→match latency without polling handles.
	OnDeliver func(r *Recv, simNow float64)

	// Telemetry, when non-nil and enabled, attaches a flight recorder
	// (one track per GPU) capturing send/retransmit/credit-stall
	// events, per-step match spans, fault-injection markers, and
	// queue-depth metrics. Nil (the default) records nothing and adds
	// no allocations to the drain loop.
	Telemetry *telemetry.Config

	// Overload protection (see internal/mpx/flowcontrol.go). All
	// bounds default to 0 = unbounded, which preserves the historical
	// best-effort behavior bit-for-bit.

	// UMQCap bounds each GPU's unexpected-message residency. It is
	// enforced end-to-end: the cap is split into per-sender credit
	// windows of max(1, UMQCap/(GPUs−1)) and senders stop transmitting
	// (frames queue in staging) once a window is exhausted, so the
	// receiver-side unexpected queue can never grow past
	// window×(GPUs−1) regardless of offered load.
	UMQCap int
	// PRQCap bounds each GPU's posted-receive queue: PostRecv returns
	// ErrBackpressure when the queue is full.
	PRQCap int
	// StagingCap bounds each flow's sender-side staging buffer (the
	// outbox of not-yet-transmitted frames). When it fills, Send sheds
	// per the Shed policy.
	StagingCap int
	// Shed selects the staging-overflow policy (default ShedReject).
	Shed ShedPolicy
	// Health tunes the per-endpoint overload state machine's
	// hysteresis (zero value: defaults; see HealthConfig).
	Health HealthConfig

	// DisablePersistentCache forces every persistent-channel iteration
	// (SendInit/RecvInit, see persistent.go) through the full matching
	// engine, as if nothing ever sealed. The observable results are
	// identical by contract — the conformance suite and the bench
	// regression gate run both modes differentially.
	DisablePersistentCache bool
}

// Recv is a posted receive handle. Its accessors synchronize with the
// owning runtime, so a handle may be polled while other goroutines
// drive Send/PostRecv/Progress.
type Recv struct {
	rt        *Runtime
	gpu       int
	req       envelope.Request
	seq       uint64
	delivered bool
	msg       gas.Message
	transfer  proto.Transfer
	// ph, when non-nil, marks an engine-path receive owned by a
	// persistent channel (see persistent.go): deliveries forward into
	// the handle instead of being read through this Recv.
	ph *PersistentRecv
}

// Transfer reports the simulated data movement of the delivered
// message (zero before delivery).
func (r *Recv) Transfer() proto.Transfer {
	r.rt.mu.Lock()
	defer r.rt.mu.Unlock()
	return r.transfer
}

// Done reports whether the receive was matched.
func (r *Recv) Done() bool {
	r.rt.mu.Lock()
	defer r.rt.mu.Unlock()
	return r.delivered
}

// Message returns the delivered message; it fails with ErrNotDelivered
// before a Progress call matched the receive.
func (r *Recv) Message() (gas.Message, error) {
	r.rt.mu.Lock()
	defer r.rt.mu.Unlock()
	if !r.delivered {
		return gas.Message{}, ErrNotDelivered
	}
	return r.msg, nil
}

// Stats accumulates the simulated matching work of a runtime. It is the
// only definition of the runtime's counter set: reports merge it with
// Add, and the telemetry registry publishes its counters from it (see
// statCounters). Every field is deterministic, so replays of one
// workload compare Stats values with ==.
//
// Overflow and reset semantics: every counter is a monotone total
// since the runtime was created (or since the last ResetStats call),
// except Unmatched, which is a level.
// Counters are plain ints, which the compile-time guard below pins to
// 64 bits, so even a soak pushing 10^9 messages per host-second would
// take centuries to wrap one — overflow is out of the design envelope
// rather than merely unlikely. Counters never reset implicitly:
// Stats() is a pure read and may be called repeatedly (interval deltas
// are the caller's subtraction); ResetStats establishes a new zero for
// the whole view, including the merged transport/fault counters.
type Stats struct {
	Matches     int
	SimSeconds  float64
	Iterations  int
	Counters    simt.Counters
	Unmatched   int // a level: messages pending after the last step (Add sums it as total residue)
	PostedRecvs int
	Sends       int

	// Data movement (the proto layer).
	BytesMoved      int64
	TransferSeconds float64
	EagerMsgs       int
	RendezvousMsgs  int
	PrePostedMsgs   int // matched messages whose receive was posted first

	// Reliability (the reliable transport layer; all zero on a
	// fault-free wire).
	Retries       int // frames retransmitted after an RTO expiry
	Acks          int // transport-level acknowledgments processed
	Duplicates    int // duplicate frames suppressed by the receiver
	Drops         int // frames the fault plane dropped on the wire
	Corrupt       int // headers discarded for a failed checksum
	Invalid       int // wire words discarded for a missing valid bit
	StallSteps    int // drain rounds suppressed by injected stalls
	ProgressSteps int // progress steps executed (Progress + Drain)

	// Overload protection (the flow-control layer; all zero unless
	// queue caps are configured — Config.UMQCap/PRQCap/StagingCap).
	Sheds            int // staging-full shed events at senders
	ShedRejects      int // sends refused with ErrBackpressure (ShedReject)
	ShedDrops        int // frames parked by a drop policy
	ShedRecovered    int // parked frames returned to staging (NACK or deadline)
	RecvRejects      int // PostRecv calls refused by PRQCap
	Nacks            int // missing flow sequences NACKed by receivers
	NackRetransmits  int // parked frames recovered by a NACK
	CreditStalls     int // transmit attempts blocked awaiting credit or ring space
	StateTransitions int // endpoint health-state changes
	// Simulated seconds each endpoint spent per health state, summed
	// across GPUs (one poll per endpoint per progress step).
	HealthySeconds    float64
	CongestedSeconds  float64
	SheddingSeconds   float64
	RecoveringSeconds float64
	// SlowDrains counts fault-plane drain rounds throttled by an
	// injected slow receiver (merged from the injector; zero on a
	// lossless wire).
	SlowDrains int

	// Stream-ordered contexts (the MPIX Stream relaxation; all zero
	// unless streams are in use — see endpoint.go).
	StreamSends int // sends on a non-default stream
	// CrossStreamReleases counts frames the receiver released to
	// matching while a lower flow sequence was still missing — the
	// cross-stream overtakes the strict levels would have held back.
	// Nonzero only under Level == StreamOrdered with wire reordering.
	CrossStreamReleases int

	// Persistent matching (the sealed match-handle cache; see
	// persistent.go — all zero unless SendInit/RecvInit channels are in
	// use).
	PersistentSends    int // partition fires through persistent send channels
	PersistentRecvs    int // partition deliveries into persistent receive channels
	CacheHits          int // deliveries served by a sealed handle, O(1), no engine
	CacheMisses        int // persistent deliveries that ran the full engine
	CacheSeals         int // handles sealed after an uncontested engine iteration
	CacheInvalidations int // sealed handles revoked by a contesting post or message
}

// Stats counters must not wrap during multi-billion-message soak runs,
// so the runtime requires a 64-bit int: the index below is 0 on 64-bit
// platforms and -1 (a compile error) on 32-bit ones.
var _ = [1]struct{}{}[(^uint(0)>>62)>>1-1]

// Rate returns cumulative matches per simulated second.
func (s Stats) Rate() float64 {
	if s.SimSeconds <= 0 {
		return 0
	}
	return float64(s.Matches) / s.SimSeconds
}

// Add accumulates o into s, field by field. Reports that merge several
// runs use it, so a new counter needs one line here; TestStatsAdd fails
// until it has one.
func (s *Stats) Add(o Stats) {
	s.Matches += o.Matches
	s.SimSeconds += o.SimSeconds
	s.Iterations += o.Iterations
	s.Counters.Add(o.Counters)
	s.Unmatched += o.Unmatched
	s.PostedRecvs += o.PostedRecvs
	s.Sends += o.Sends
	s.BytesMoved += o.BytesMoved
	s.TransferSeconds += o.TransferSeconds
	s.EagerMsgs += o.EagerMsgs
	s.RendezvousMsgs += o.RendezvousMsgs
	s.PrePostedMsgs += o.PrePostedMsgs
	s.Retries += o.Retries
	s.Acks += o.Acks
	s.Duplicates += o.Duplicates
	s.Drops += o.Drops
	s.Corrupt += o.Corrupt
	s.Invalid += o.Invalid
	s.StallSteps += o.StallSteps
	s.ProgressSteps += o.ProgressSteps
	s.Sheds += o.Sheds
	s.ShedRejects += o.ShedRejects
	s.ShedDrops += o.ShedDrops
	s.ShedRecovered += o.ShedRecovered
	s.RecvRejects += o.RecvRejects
	s.Nacks += o.Nacks
	s.NackRetransmits += o.NackRetransmits
	s.CreditStalls += o.CreditStalls
	s.StateTransitions += o.StateTransitions
	s.HealthySeconds += o.HealthySeconds
	s.CongestedSeconds += o.CongestedSeconds
	s.SheddingSeconds += o.SheddingSeconds
	s.RecoveringSeconds += o.RecoveringSeconds
	s.SlowDrains += o.SlowDrains
	s.StreamSends += o.StreamSends
	s.CrossStreamReleases += o.CrossStreamReleases
	s.PersistentSends += o.PersistentSends
	s.PersistentRecvs += o.PersistentRecvs
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.CacheSeals += o.CacheSeals
	s.CacheInvalidations += o.CacheInvalidations
}

// Runtime is a GAS cluster with per-GPU matching engines. It is safe
// for concurrent use: senders, receivers and a progress driver may run
// on separate goroutines. One mutex serializes all state transitions —
// the simulated device does the heavy lifting inside one Progress
// call, which models the single communication kernel per GPU the paper
// describes, so finer-grained locking would buy nothing.
type Runtime struct {
	cfg Config

	// mu guards every field below, the pending queues, the accumulated
	// stats, and the delivery fields of issued Recv handles.
	mu        sync.Mutex
	cluster   *gas.Cluster
	transport Transport
	injector  *fault.Injector // nil on a lossless wire
	engines   []match.ReusableMatcher

	// Per-GPU pending state between progress steps.
	pendingMsgs  [][]gas.Message
	pendingRecvs [][]*Recv

	// Per-GPU match-call scratch, reused every progress step so the
	// steady-state drain loop allocates nothing.
	scratch []gpuScratch

	// Reliable-layer state: sender flows tx[src][dst], receiver
	// reassembly rx[dst][src], the frame free list every send draws
	// from, and the simulated transport clock (a separate clock from
	// Stats.SimSeconds, which meters only matching work so fault-free
	// rates stay unchanged).
	tx      [][]*txFlow
	rx      [][]*rxFlow
	frames  []*frame // retired frames, refilled by every ack
	now     float64
	poll    float64 // simulated seconds per progress step
	rtoBase float64 // first retransmission deadline delta
	rtoMax  float64 // backoff cap

	// Overload-protection state (see flowcontrol.go): the per-flow
	// credit window derived from Config.UMQCap, whether any bound is
	// configured at all, the parked-frame recovery deadline, and the
	// per-endpoint health machines. All fixed at construction except
	// health, which progress steps advance.
	creditWindow int
	overload     bool
	nackOn       bool // a drop policy may park frames ⇒ gap scan runs
	parkTimeout  float64
	health       []endpointHealth

	// Persistent-request plane (see persistent.go): per-GPU sealed
	// match-handle caches (allocated lazily on the first RecvInit),
	// armed-but-incomplete iteration counts (Drain's termination
	// includes them), this step's seal candidates, the reused
	// invalidation scratch slice, and the simulated cost of one cached
	// delivery.
	pcaches     []*match.PersistentCache
	openPersist []int
	sealCand    [][]*PersistentRecv
	invScratch  []match.HandleID
	persistSec  float64

	// openStreams tracks each endpoint's open ordering contexts as a
	// 16-bit set (bit s = stream s open; bit 0, the default stream, is
	// always set). Endpoint.Open and Stream.Close flip the bits; the
	// stream-qualified verbs check them (see endpoint.go).
	openStreams []uint16

	// seq is the logical clock ordering sends against receive posts,
	// deciding pre-postedness per message.
	seq   uint64
	stats Stats
	// base holds the external counters (see externalStatsLocked)
	// observed at the last ResetStats, so the merged Stats view resets
	// consistently even though those sources cannot be zeroed
	// themselves.
	base Stats

	// Telemetry plane (all nil when Config.Telemetry is off; every
	// handle is nil-safe, so emission sites are unconditional).
	// counters[i] is the registry handle of statCounters[i].
	rec       *telemetry.Recorder
	counters  []*telemetry.Counter
	mUMQDepth *telemetry.Histogram
	mPRQDepth *telemetry.Histogram
}

// Normalize validates the config and applies every construction-time
// default in one place: unset (zero) fields take their documented
// defaults, nonsensical fields (negative sizes, unknown level or shed
// policy, inverted health watermarks) return an error wrapping
// ErrBadConfig. Normalize is idempotent — re-normalizing a normalized
// config changes nothing — and New applies it implicitly, panicking on
// error; callers that want the error instead call Normalize first.
func (c Config) Normalize() (Config, error) {
	if c.Level < FullMPI || c.Level > StreamOrdered {
		return c, fmt.Errorf("%w: unknown level %d", ErrBadConfig, int(c.Level))
	}
	if c.Shed < ShedReject || c.Shed > ShedDropNewest {
		return c, fmt.Errorf("%w: unknown shed policy %d", ErrBadConfig, int(c.Shed))
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"GPUs", c.GPUs}, {"Queues", c.Queues}, {"QueueCap", c.QueueCap},
		{"Streams", c.Streams}, {"Window", c.Window}, {"RetryLimit", c.RetryLimit},
		{"StallPatience", c.StallPatience}, {"EngineWorkers", c.EngineWorkers},
		{"UMQCap", c.UMQCap}, {"PRQCap", c.PRQCap}, {"StagingCap", c.StagingCap},
	} {
		if f.v < 0 {
			return c, fmt.Errorf("%w: negative %s (%d)", ErrBadConfig, f.name, f.v)
		}
	}
	if c.Health.HighWater < 0 || c.Health.LowWater < 0 || c.Health.RecoverySteps < 0 {
		return c, fmt.Errorf("%w: negative health watermark or recovery steps", ErrBadConfig)
	}
	// Validate the hysteresis band after defaults resolve, so a lone
	// LowWater above the default HighWater is caught too.
	if h := c.Health.withDefaults(); h.LowWater >= h.HighWater {
		return c, fmt.Errorf("%w: health LowWater %.3g must stay below HighWater %.3g (the hysteresis band)",
			ErrBadConfig, h.LowWater, h.HighWater)
	}
	if c.Arch == nil {
		c.Arch = arch.PascalGTX1080()
	}
	if c.GPUs == 0 {
		c.GPUs = 2
	}
	if c.Queues == 0 {
		c.Queues = 8
	}
	if c.Streams == 0 {
		c.Streams = 8
	}
	if c.Streams > int(envelope.MaxStream)+1 {
		c.Streams = int(envelope.MaxStream) + 1
	}
	if c.Link.BandwidthGBs <= 0 {
		c.Link = proto.NVLink()
	}
	if c.Window == 0 {
		c.Window = 64
	}
	if c.RetryLimit == 0 {
		c.RetryLimit = 16
	}
	if c.StallPatience == 0 {
		c.StallPatience = 100
	}
	c.Health = c.Health.withDefaults()
	return c, nil
}

// New creates a runtime. It panics only on programmer errors (a config
// Normalize rejects); user-level misuses surface as errors from
// Send/PostRecv.
func New(cfg Config) *Runtime {
	var err error
	if cfg, err = cfg.Normalize(); err != nil {
		panic(err)
	}
	rt := &Runtime{
		cfg:          cfg,
		cluster:      gas.NewCluster(cfg.GPUs, cfg.Arch, cfg.QueueCap),
		engines:      make([]match.ReusableMatcher, cfg.GPUs),
		pendingMsgs:  make([][]gas.Message, cfg.GPUs),
		pendingRecvs: make([][]*Recv, cfg.GPUs),
		scratch:      make([]gpuScratch, cfg.GPUs),
		tx:           make([][]*txFlow, cfg.GPUs),
		rx:           make([][]*rxFlow, cfg.GPUs),
		pcaches:      make([]*match.PersistentCache, cfg.GPUs),
		openPersist:  make([]int, cfg.GPUs),
		sealCand:     make([][]*PersistentRecv, cfg.GPUs),
		openStreams:  make([]uint16, cfg.GPUs),
	}
	for g := 0; g < cfg.GPUs; g++ {
		rt.tx[g] = make([]*txFlow, cfg.GPUs)
		rt.rx[g] = make([]*rxFlow, cfg.GPUs)
		rt.openStreams[g] = 1 // the default stream is always open
	}
	if cfg.Fault != nil {
		rt.injector = fault.New(rt.cluster, *cfg.Fault)
		rt.transport = rt.injector
	} else {
		rt.transport = lossless{c: rt.cluster}
	}
	// The transport clock ticks one kernel-launch overhead per progress
	// step; retransmission timers start at four polls and back off to a
	// 32-poll cap.
	model := timing.NewModel(cfg.Arch)
	rt.poll = model.Seconds(model.P.LaunchOverhead)
	rt.rtoBase = 4 * rt.poll
	rt.rtoMax = 32 * rt.poll
	rt.persistSec = model.Seconds(model.PersistentDeliverCycles())
	// Overload protection: derive the per-flow credit window from the
	// receiver's unexpected-message budget, and the parked-frame
	// recovery deadline from the base retransmission delta — a park is
	// a first-attempt retransmit, not a backed-off one, and parked
	// frames count against the flow's transmit window, so a long
	// deadline would throttle the whole flow into a shed convoy that
	// outlives the overload (and it stays well under the StallPatience
	// horizon, so a pending recovery never reads as a stall).
	if cfg.UMQCap > 0 {
		senders := cfg.GPUs - 1
		if senders < 1 {
			senders = 1
		}
		rt.creditWindow = cfg.UMQCap / senders
		if rt.creditWindow < 1 {
			rt.creditWindow = 1
		}
	}
	rt.overload = rt.creditWindow > 0 || cfg.PRQCap > 0 || cfg.StagingCap > 0
	rt.nackOn = cfg.StagingCap > 0 && cfg.Shed != ShedReject
	rt.parkTimeout = rt.rtoBase
	rt.health = make([]endpointHealth, cfg.GPUs)
	rt.setupTelemetry()
	for i := range rt.engines {
		rt.engines[i] = rt.newEngine(i)
	}
	return rt
}

// Injector returns the fault-injection plane wrapping the transport,
// or nil when the runtime runs on a lossless wire.
func (rt *Runtime) Injector() *fault.Injector { return rt.injector }

// newEngine picks the matching engine the level calls for. GPU g's
// engine shares the runtime's recorder and emits on g's track.
func (rt *Runtime) newEngine(g int) match.ReusableMatcher {
	switch rt.cfg.Level {
	case NoSourceWildcard, NoUnexpected:
		return match.NewPartitionedMatcher(match.PartitionedConfig{
			Arch: rt.cfg.Arch, Queues: rt.cfg.Queues, Compact: rt.cfg.Level != NoUnexpected,
			Workers: rt.cfg.EngineWorkers, Recorder: rt.rec, Track: g,
		})
	case Unordered:
		return match.MustHashMatcher(match.HashConfig{Arch: rt.cfg.Arch, Workers: rt.cfg.EngineWorkers, Recorder: rt.rec, Track: g})
	case StreamOrdered:
		return match.NewStreamMatcher(match.StreamConfig{
			Arch: rt.cfg.Arch, Streams: rt.cfg.Streams,
			Workers: rt.cfg.EngineWorkers, Recorder: rt.rec, Track: g,
		})
	default:
		return match.NewMatrixMatcher(match.MatrixConfig{Arch: rt.cfg.Arch, Compact: true, Workers: rt.cfg.EngineWorkers, Recorder: rt.rec, Track: g})
	}
}

// Level returns the runtime's semantic contract.
func (rt *Runtime) Level() Level { return rt.cfg.Level }

// GPUs returns the cluster size.
func (rt *Runtime) GPUs() int { return rt.cluster.Size() }

// validGPU reports whether g indexes a GPU of the cluster.
func (rt *Runtime) validGPU(g int) bool { return g >= 0 && g < rt.cluster.Size() }

// Send transmits payload from GPU src to GPU dst with the given tag
// and communicator on the default stream — a thin wrapper over the
// endpoint verb (see endpoint.go for the handle-based API).
func (rt *Runtime) Send(src, dst int, tag envelope.Tag, comm envelope.Comm, payload []byte) error {
	return rt.sendStream(src, envelope.DefaultStream, dst, tag, comm, payload)
}

// sendStream is the send core: a direct GAS write into dst's message
// queue via the reliable layer, stamped with the source endpoint's
// stream. Validation happens before any state changes, so a rejected
// send burns no sequence number; an accepted send never fails on
// transient back-pressure (the frame queues in the flow's outbox and
// Progress transmits it when the wire has room).
func (rt *Runtime) sendStream(src int, stream envelope.Stream, dst int, tag envelope.Tag, comm envelope.Comm, payload []byte) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	env, err := rt.sendEnvLocked(src, stream, dst, tag, comm)
	if err != nil {
		return err
	}
	_, err = rt.stageLocked(dst, env, payload)
	return err
}

// sendEnvLocked checks a send's arguments — both GPU indices, the
// envelope, and that src holds the stream open — and returns the
// envelope the send carries. Plain and persistent sends share it.
func (rt *Runtime) sendEnvLocked(src int, stream envelope.Stream, dst int, tag envelope.Tag, comm envelope.Comm) (envelope.Envelope, error) {
	if !rt.validGPU(src) {
		return envelope.Envelope{}, fmt.Errorf("mpx: source GPU %d outside [0,%d)", src, rt.cluster.Size())
	}
	if !rt.validGPU(dst) {
		return envelope.Envelope{}, fmt.Errorf("mpx: destination GPU %d outside [0,%d)", dst, rt.cluster.Size())
	}
	env := envelope.Envelope{Src: envelope.Rank(src), Tag: tag, Comm: comm, Stream: stream}
	if err := env.Validate(); err != nil {
		return envelope.Envelope{}, fmt.Errorf("mpx: %w", err)
	}
	return env, rt.streamOpenLocked(src, stream)
}

// stageLocked is everything an accepted send does, plain or
// persistent: it sheds per policy when the flow's staging buffer is
// full, stages a frame from the free list, counts the send, and
// eagerly pushes what the window and wire allow, so a send is on the
// wire before the next progress step on an uncongested cluster. It
// reports whether the send was accepted; a ShedReject refusal burns no
// sequence number and leaves no gap in the flow.
func (rt *Runtime) stageLocked(dst int, env envelope.Envelope, payload []byte) (bool, error) {
	src := int(env.Src)
	fl := rt.txFlowFor(src, dst)
	park := false
	if rt.cfg.StagingCap > 0 && fl.staged() >= rt.cfg.StagingCap {
		var err error
		if park, err = rt.shedSendLocked(fl); err != nil {
			return false, err
		}
	}
	fr := rt.newFrameLocked(fl, env, payload)
	if park {
		rt.parkLocked(fl, fr)
	} else {
		fl.push(fr)
	}
	rt.stats.Sends++
	if env.Stream != envelope.DefaultStream {
		rt.stats.StreamSends++
	}
	rt.rec.Instant(src, evSend, argDst, int64(dst), argFlow, int64(fl.nextFlow))
	_, err := rt.flushOutbox(fl)
	return true, err
}

// streamOpenLocked checks that endpoint g holds stream open (the
// default stream always is).
func (rt *Runtime) streamOpenLocked(g int, stream envelope.Stream) error {
	if rt.openStreams[g]&(1<<stream) == 0 {
		return fmt.Errorf("%w: stream %d on GPU %d", ErrStreamClosed, stream, g)
	}
	return nil
}

// PostRecv posts a receive on GPU dst for the default stream — a thin
// wrapper over the endpoint verb (see endpoint.go).
func (rt *Runtime) PostRecv(dst int, src envelope.Rank, tag envelope.Tag, comm envelope.Comm) (*Recv, error) {
	return rt.postRecvStream(dst, envelope.DefaultStream, src, tag, comm)
}

// postRecvStream is the receive-post core.
func (rt *Runtime) postRecvStream(dst int, stream envelope.Stream, src envelope.Rank, tag envelope.Tag, comm envelope.Comm) (*Recv, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	req, err := rt.recvReqLocked(dst, stream, src, tag, comm)
	if err != nil {
		return nil, err
	}
	if rt.cfg.PRQCap > 0 && len(rt.pendingRecvs[dst]) >= rt.cfg.PRQCap {
		rt.stats.RecvRejects++
		rt.healthNoteShedLocked(dst)
		rt.rec.Instant(dst, evShed, argQueued, int64(len(rt.pendingRecvs[dst])), 0, 0)
		return nil, fmt.Errorf("%w: GPU %d posted-receive queue holds %d (cap %d)",
			ErrBackpressure, dst, len(rt.pendingRecvs[dst]), rt.cfg.PRQCap)
	}
	rt.seq++
	r := &Recv{rt: rt, gpu: dst, req: req, seq: rt.seq}
	rt.pendingRecvs[dst] = append(rt.pendingRecvs[dst], r)
	rt.stats.PostedRecvs++
	// A non-persistent post can legally claim messages a sealed
	// persistent channel was serving: unseal whatever it contests.
	rt.persistInvalidatePostLocked(dst, req)
	return r, nil
}

// recvReqLocked checks a receive's arguments, in this order: the GPU
// index, the request, the level's contract, and that dst holds the
// stream open. NoSourceWildcard and stricter reject AnySource;
// Unordered rejects both wildcards; FullMPI and StreamOrdered admit
// everything (a stream-qualified wildcard ranges only within its
// stream — the stream field itself has no wildcard). Plain and
// persistent receives share it.
func (rt *Runtime) recvReqLocked(dst int, stream envelope.Stream, src envelope.Rank, tag envelope.Tag, comm envelope.Comm) (envelope.Request, error) {
	if !rt.validGPU(dst) {
		return envelope.Request{}, fmt.Errorf("mpx: destination GPU %d outside [0,%d)", dst, rt.cluster.Size())
	}
	req := envelope.Request{Src: src, Tag: tag, Comm: comm, Stream: stream}
	if err := req.Validate(); err != nil {
		return envelope.Request{}, err
	}
	switch rt.cfg.Level {
	case NoSourceWildcard, NoUnexpected:
		if src == envelope.AnySource {
			return envelope.Request{}, match.ErrSourceWildcard
		}
	case Unordered:
		if req.HasWildcard() {
			return envelope.Request{}, match.ErrWildcard
		}
	}
	return req, rt.streamOpenLocked(dst, stream)
}

// Progress runs one communication-kernel step on every GPU: ticks the
// wire, retransmits and flushes sender flows, drains arrived frames
// through duplicate suppression and reordering into the pending batch,
// and matches the batch against posted receives. Under NoUnexpected it
// fails if any message stays unmatched (it arrived before its receive
// was posted and no receive of this step claims it).
func (rt *Runtime) Progress() error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	_, err := rt.progressStepLocked()
	return err
}

// gpuScratch holds one GPU's reusable match-call buffers: the packed
// batch views, the used-message marks, and the engine's recycled
// Result. Everything grows monotonically and is overwritten each step.
type gpuScratch struct {
	envs []envelope.Envelope
	reqs []envelope.Request
	used []bool
	res  match.Result
}

// matchLocked runs GPU g's engine over the batch through the
// zero-allocation MatchInto path, into the GPU's recycled Result.
func (rt *Runtime) matchLocked(g int, envs []envelope.Envelope, reqs []envelope.Request) (*match.Result, error) {
	res := &rt.scratch[g].res
	if err := rt.engines[g].MatchInto(res, envs, reqs); err != nil {
		return nil, err
	}
	return res, nil
}

// chargeDeliveryLocked does the accounting of one delivery, through
// the engine or the sealed cache alike: the match, and the data
// movement of the protocol picked by payload size and pre-postedness
// (the receive, posted at logical time postSeq, came first). It
// returns the transfer.
func (rt *Runtime) chargeDeliveryLocked(postSeq uint64, m *gas.Message) proto.Transfer {
	preposted := postSeq < m.Seq
	tr := rt.cfg.Protocol.Cost(rt.cfg.Link, len(m.Payload), preposted)
	rt.stats.Matches++
	rt.stats.BytesMoved += int64(tr.Bytes)
	rt.stats.TransferSeconds += tr.Seconds()
	if tr.Mode == proto.Eager {
		rt.stats.EagerMsgs++
	} else {
		rt.stats.RendezvousMsgs++
	}
	if preposted {
		rt.stats.PrePostedMsgs++
	}
	return tr
}

// progressStepLocked runs one progress step with rt.mu held and
// returns how much observable progress it made: frames transmitted,
// acks retired, messages released to matching, and matches delivered.
// Drain keys its fixed-point and stall detection on this count.
func (rt *Runtime) progressStepLocked() (int, error) {
	rt.stats.ProgressSteps++
	rt.now += rt.poll
	rt.rec.SetClock(rt.now)
	rt.transport.Step()
	progress, err := rt.pumpFlowsLocked()
	if err != nil {
		return progress, err
	}
	progress += rt.receiveLocked()
	if rt.nackOn {
		// Receiver-side gap scan: flow-sequence holes exposed by
		// out-of-order arrivals NACK their shed (parked) frames back
		// into the transmit path.
		for g := 0; g < rt.cluster.Size(); g++ {
			progress += rt.nackGapsLocked(g)
		}
	}
	for g := 0; g < rt.cluster.Size(); g++ {
		msgs := rt.pendingMsgs[g]
		recvs := rt.pendingRecvs[g]
		if len(msgs) == 0 && len(recvs) == 0 {
			continue
		}

		rt.mUMQDepth.Observe(float64(len(msgs)))
		rt.mPRQDepth.Observe(float64(len(recvs)))

		sc := &rt.scratch[g]
		if cap(sc.envs) < len(msgs) {
			sc.envs = make([]envelope.Envelope, len(msgs))
		}
		envs := sc.envs[:len(msgs)]
		for i, m := range msgs {
			envs[i] = m.Env
		}
		if cap(sc.reqs) < len(recvs) {
			sc.reqs = make([]envelope.Request, len(recvs))
		}
		reqs := sc.reqs[:len(recvs)]
		for i, r := range recvs {
			reqs[i] = r.req
		}

		res, err := rt.matchLocked(g, envs, reqs)
		if err != nil {
			return progress, fmt.Errorf("mpx: GPU %d: %w", g, err)
		}
		rt.stats.SimSeconds += res.SimSeconds
		rt.stats.Iterations += res.Iterations
		rt.stats.Counters.Add(res.Counters)

		if cap(sc.used) < len(msgs) {
			sc.used = make([]bool, len(msgs))
		}
		usedMsg := sc.used[:len(msgs)]
		for i := range usedMsg {
			usedMsg[i] = false
		}
		unmatchedMsgs := len(msgs)
		remainingRecvs := recvs[:0]
		for ri, mi := range res.Assignment {
			if mi == match.NoMatch {
				remainingRecvs = append(remainingRecvs, recvs[ri])
				continue
			}
			recvs[ri].delivered = true
			recvs[ri].msg = msgs[mi]
			usedMsg[mi] = true
			unmatchedMsgs--
			progress++
			if rt.creditWindow > 0 && msgs[mi].Flow != 0 {
				// The match frees the message's receiver residency:
				// bump the flow's cumulative consumption, which flows
				// back to the sender as a credit grant.
				if s := int(msgs[mi].Env.Src); rt.validGPU(s) {
					if rx := rt.rx[g][s]; rx != nil {
						rx.matched++
					}
				}
			}

			tr := rt.chargeDeliveryLocked(recvs[ri].seq, &msgs[mi])
			recvs[ri].transfer = tr
			if rt.cfg.OnDeliver != nil {
				rt.cfg.OnDeliver(recvs[ri], rt.now)
			}
			if recvs[ri].ph != nil {
				// An engine-path persistent delivery: forward into the
				// owning handle (the cache-miss path).
				rt.persistForwardLocked(recvs[ri], tr)
			}
		}
		if rt.cfg.Level == NoUnexpected && unmatchedMsgs > 0 {
			for i, used := range usedMsg {
				if !used {
					return progress, fmt.Errorf("%w: %d message(s) pending on GPU %d (first: %v)",
						ErrUnexpectedMessage, unmatchedMsgs, g, msgs[i].Env)
				}
			}
		}
		rt.rec.Span(g, evMatch, rt.now, res.SimSeconds,
			argMatched, int64(len(msgs)-unmatchedMsgs), argPending, int64(unmatchedMsgs))
		// Compact the unmatched messages in place: writes trail reads,
		// and delivered copies were taken above, so no reallocation.
		remainingMsgs := msgs[:0]
		for i, used := range usedMsg {
			if !used {
				remainingMsgs = append(remainingMsgs, msgs[i])
			}
		}
		rt.pendingMsgs[g] = remainingMsgs
		rt.pendingRecvs[g] = remainingRecvs
		// Step-boundary cache maintenance: unseal tuples with an
		// unexpected backlog, seal this step's uncontested candidates.
		rt.persistStepLocked(g)
	}
	rt.stats.Unmatched = 0
	for g := range rt.pendingMsgs {
		rt.stats.Unmatched += len(rt.pendingMsgs[g])
	}
	rt.stepHealthLocked()
	// Batch boundary: publish the registry counters, and hand this
	// step's emissions to the live streamer (if any) before a later
	// step's ring wrap could overwrite them.
	rt.publishCountersLocked()
	rt.rec.Pump()
	return progress, nil
}

// Drain runs Progress until every posted receive delivered, a fixed
// point or stall was detected, or maxSteps is hit. It reports whether
// all posted receives were delivered.
//
// A fixed point — two consecutive progress-free steps with every flow
// drained and the wire idle — means no future step can change the
// outcome (an unsatisfiable receive), and Drain returns (false, nil)
// immediately instead of spinning to maxSteps. Progress-free steps
// with frames still queued, in flight, or held back are tolerated for
// Config.StallPatience steps, then surface as a *StallError; a frame
// exhausting its retry budget surfaces as a *DropError naming the
// flow.
func (rt *Runtime) Drain(maxSteps int) (bool, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	idle := 0
	for step := 0; step < maxSteps; step++ {
		progress, err := rt.progressStepLocked()
		if err != nil {
			return false, err
		}
		open := rt.openPersistLocked()
		for g := range rt.pendingRecvs {
			open += len(rt.pendingRecvs[g])
		}
		if open == 0 {
			return true, nil
		}
		if progress > 0 {
			idle = 0
			continue
		}
		idle++
		if idle >= 2 && rt.flowsIdleLocked() && rt.transport.Idle() {
			return false, nil
		}
		if idle >= rt.cfg.StallPatience {
			return false, rt.stallErrorLocked(idle, open)
		}
	}
	return false, nil
}

// Stats returns the accumulated simulated-work statistics, merged with
// the transport's detection counters (per-GPU link stats) and, when
// the fault plane is active, its injection counters. Reading is pure:
// repeated calls return consistent monotone totals with no implicit
// reset (see the Stats type for the overflow/reset contract).
func (rt *Runtime) Stats() Stats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.mergedStatsLocked()
}

func (rt *Runtime) mergedStatsLocked() Stats {
	st, ext := rt.stats, rt.externalStatsLocked()
	st.Corrupt = ext.Corrupt - rt.base.Corrupt
	st.Invalid = ext.Invalid - rt.base.Invalid
	st.Drops = ext.Drops - rt.base.Drops
	st.StallSteps = ext.StallSteps - rt.base.StallSteps
	st.SlowDrains = ext.SlowDrains - rt.base.SlowDrains
	return st
}

// externalStatsLocked reads the cumulative counters kept outside the
// runtime: link-level detection (Corrupt, Invalid, summed over GPUs)
// and, when the fault plane is active, its injections (Drops,
// StallSteps, SlowDrains).
func (rt *Runtime) externalStatsLocked() Stats {
	var st Stats
	for g := 0; g < rt.cluster.Size(); g++ {
		ls := rt.cluster.GPU(g).LinkStats()
		st.Corrupt += ls.Corrupt
		st.Invalid += ls.Invalid
	}
	if rt.injector != nil {
		c := rt.injector.Counters()
		st.Drops, st.StallSteps, st.SlowDrains = c.Drops, c.StallSteps, c.SlowDrains
	}
	return st
}

// ResetStats zeroes the cumulative Stats view: the runtime's own
// counters are cleared and the externally sourced counters (link-level
// corruption detection, fault-plane injections) are re-based so the
// next Stats call reads zero everywhere. The telemetry registry's
// counters and queue-depth histograms restart with it. Load drivers
// use it to exclude a warmup phase from steady-state accounting.
// In-flight state — pending messages, posted receives, flow windows,
// the simulated clock — is untouched; only the accounting restarts.
func (rt *Runtime) ResetStats() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.stats = Stats{}
	rt.base = rt.externalStatsLocked()
	rt.publishCountersLocked()
	// The queue-depth histograms feed the steady-state occupancy view,
	// so a warmup exclusion must re-base them too (nil-safe no-ops when
	// telemetry is off).
	rt.mUMQDepth.Reset()
	rt.mPRQDepth.Reset()
}

// Now returns the simulated transport-clock time in seconds: the
// number of progress steps taken so far times Poll.
func (rt *Runtime) Now() float64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.now
}

// Poll returns the simulated seconds one progress step advances the
// transport clock (one kernel-launch overhead on the configured
// architecture). It is fixed at construction.
func (rt *Runtime) Poll() float64 { return rt.poll }

// EngineName reports the matching engine backing this runtime.
func (rt *Runtime) EngineName() string { return rt.engines[0].Name() }
