// Package envelope defines the message-matching envelope the paper
// works with: the {source, tag, communicator} tuple, the two MPI
// wildcards, and the packed 64-bit header encoding. The paper observes
// (§IV) that no analyzed application needs tags longer than 16 bits, so
// the entire header — source, 16-bit tag, communicator and flags —
// fits into a single 64-bit word, which is what the GPU matchers load.
//
// The source field is 20 bits (1M ranks; the traced applications use
// at most a few thousand), followed by a 4-bit stream id (the MPIX
// Stream ordering context, DESIGN.md §17) and an 8-bit checksum
// sealed into every packed word. The checksum makes each wire word
// self-checking: the GAS transport verifies it on receive, so a
// bit-flipped header is detected and counted instead of silently
// matching the wrong receive.
package envelope

import "fmt"

// Rank identifies a process (an endpoint able to send and receive).
type Rank int32

// Tag is the user-assigned message tag. Only the low 16 bits are
// representable in the packed header.
type Tag int32

// Comm identifies a communicator. Only the low 12 bits are
// representable in the packed header.
type Comm int32

// Stream identifies an ordering context within an endpoint (MPIX
// Stream). Matching order is guaranteed only among messages and
// requests carrying the same stream; there is no stream wildcard, so
// the stream always participates in the match predicate, like the
// communicator.
type Stream int32

// Wildcards. They are valid only in receive requests, never in
// message envelopes.
const (
	// AnySource matches any source rank (MPI_ANY_SOURCE).
	AnySource Rank = -1
	// AnyTag matches any tag (MPI_ANY_TAG).
	AnyTag Tag = -1
)

// Limits of the packed representation.
const (
	MaxRank   Rank   = 1<<20 - 1
	MaxTag    Tag    = 1<<16 - 1
	MaxComm   Comm   = 1<<12 - 1
	MaxStream Stream = 1<<4 - 1
)

// DefaultStream is the ordering context used by the flat (non-stream)
// API. Packed words with a zero stream are bit-identical to the
// pre-stream encoding.
const DefaultStream Stream = 0

// Envelope is the matching header carried by a message. All fields are
// concrete (wildcards are illegal on the send side).
type Envelope struct {
	Src    Rank
	Tag    Tag
	Comm   Comm
	Stream Stream
}

// String formats the envelope for diagnostics.
func (e Envelope) String() string {
	if e.Stream != DefaultStream {
		return fmt.Sprintf("{src:%d tag:%d comm:%d stream:%d}", e.Src, e.Tag, e.Comm, e.Stream)
	}
	return fmt.Sprintf("{src:%d tag:%d comm:%d}", e.Src, e.Tag, e.Comm)
}

// Validate reports whether the envelope is legal to send: concrete
// non-negative source within 20 bits, tag within 16 bits, communicator
// within 12 bits, stream within 4 bits.
func (e Envelope) Validate() error {
	if e.Src < 0 {
		return fmt.Errorf("envelope: source %d is negative (wildcards are receive-only)", e.Src)
	}
	if e.Src > MaxRank {
		return fmt.Errorf("envelope: source %d outside [0,%d]", e.Src, MaxRank)
	}
	if e.Tag < 0 || e.Tag > MaxTag {
		return fmt.Errorf("envelope: tag %d outside [0,%d]", e.Tag, MaxTag)
	}
	if e.Comm < 0 || e.Comm > MaxComm {
		return fmt.Errorf("envelope: communicator %d outside [0,%d]", e.Comm, MaxComm)
	}
	if e.Stream < 0 || e.Stream > MaxStream {
		return fmt.Errorf("envelope: stream %d outside [0,%d]", e.Stream, MaxStream)
	}
	return nil
}

// Request is a posted receive request's matching criteria. Src may be
// AnySource and Tag may be AnyTag. Stream is always concrete: MPIX
// Stream defines no stream wildcard.
type Request struct {
	Src    Rank
	Tag    Tag
	Comm   Comm
	Stream Stream
}

// String formats the request, spelling out wildcards.
func (r Request) String() string {
	src, tag := fmt.Sprint(r.Src), fmt.Sprint(r.Tag)
	if r.Src == AnySource {
		src = "ANY"
	}
	if r.Tag == AnyTag {
		tag = "ANY"
	}
	if r.Stream != DefaultStream {
		return fmt.Sprintf("{src:%s tag:%s comm:%d stream:%d}", src, tag, r.Comm, r.Stream)
	}
	return fmt.Sprintf("{src:%s tag:%s comm:%d}", src, tag, r.Comm)
}

// Validate reports whether the request is legal to post.
func (r Request) Validate() error {
	if r.Src < 0 && r.Src != AnySource {
		return fmt.Errorf("request: source %d is neither a rank nor AnySource", r.Src)
	}
	if r.Src > MaxRank {
		return fmt.Errorf("request: source %d outside [0,%d]", r.Src, MaxRank)
	}
	if (r.Tag < 0 && r.Tag != AnyTag) || r.Tag > MaxTag {
		return fmt.Errorf("request: tag %d is neither in [0,%d] nor AnyTag", r.Tag, MaxTag)
	}
	if r.Comm < 0 || r.Comm > MaxComm {
		return fmt.Errorf("request: communicator %d outside [0,%d]", r.Comm, MaxComm)
	}
	if r.Stream < 0 || r.Stream > MaxStream {
		return fmt.Errorf("request: stream %d outside [0,%d] (streams admit no wildcard)", r.Stream, MaxStream)
	}
	return nil
}

// HasWildcard reports whether the request uses any wildcard.
func (r Request) HasWildcard() bool { return r.Src == AnySource || r.Tag == AnyTag }

// Matches reports whether message envelope e satisfies request r,
// honoring wildcards. The communicator and the stream always
// participate (neither admits a wildcard).
func (r Request) Matches(e Envelope) bool {
	if r.Comm != e.Comm {
		return false
	}
	if r.Stream != e.Stream {
		return false
	}
	if r.Src != AnySource && r.Src != e.Src {
		return false
	}
	if r.Tag != AnyTag && r.Tag != e.Tag {
		return false
	}
	return true
}

// Packed header layout (64 bits):
//
//	bits  0..19  source rank (20 bits)
//	bits 20..23  stream id (4 bits)
//	bits 24..31  checksum (8-bit XOR fold of the other 7 bytes)
//	bits 32..47  tag (16 bits)
//	bits 48..59  communicator (12 bits)
//	bit  60      any-source wildcard
//	bit  61      any-tag wildcard
//	bit  62      valid (distinguishes a header from a zeroed slot)
//	bit  63      reserved
const (
	srcShift     = 0
	streamShift  = 20
	cksShift     = 24
	tagShift     = 32
	commShift    = 48
	anySrcShift  = 60
	anyTagShift  = 61
	anySrcBit    = 1 << anySrcShift
	anyTagBit    = 1 << anyTagShift
	validBit     = 1 << 62
	srcMask64    = 0xFFFFF
	streamMask64 = 0xF
	cksMask64    = 0xFF
	tagMask64    = 0xFFFF
	commMask64   = 0xFFF
)

// Checksum returns the 8-bit XOR fold of w's seven non-checksum bytes.
// It ignores the checksum field itself, so Checksum(Seal(w)) ==
// Checksum(w).
func Checksum(w uint64) uint8 {
	w &^= uint64(cksMask64) << cksShift
	w ^= w >> 32
	w ^= w >> 16
	w ^= w >> 8
	return uint8(w)
}

// Seal stamps w's checksum field with the checksum of its contents,
// making the word self-checking on the wire.
func Seal(w uint64) uint64 {
	w &^= uint64(cksMask64) << cksShift
	return w | uint64(Checksum(w))<<cksShift
}

// ChecksumOK reports whether w's embedded checksum matches its
// contents. The XOR fold detects every single-bit corruption: a flip
// in any non-checksum byte changes the fold, and a flip in the
// checksum field changes the stored value.
func ChecksumOK(w uint64) bool {
	return uint8(w>>cksShift)&cksMask64 == Checksum(w)
}

// Pack encodes the envelope into the 64-bit header the GPU matchers
// load, with the checksum field sealed. Pack panics if the envelope is
// invalid; callers are expected to Validate at the API boundary.
func (e Envelope) Pack() uint64 {
	if err := e.Validate(); err != nil {
		panic("envelope: Pack on invalid envelope: " + err.Error())
	}
	return e.pack()
}

// Encode is Pack returning Validate's error instead of panicking, so a
// batch can be checked and packed in one pass.
func (e Envelope) Encode() (uint64, error) {
	if err := e.Validate(); err != nil {
		return 0, err
	}
	return e.pack(), nil
}

func (e Envelope) pack() uint64 {
	return Seal(validBit |
		(uint64(e.Src)&srcMask64)<<srcShift |
		(uint64(e.Stream)&streamMask64)<<streamShift |
		(uint64(e.Tag)&tagMask64)<<tagShift |
		(uint64(e.Comm)&commMask64)<<commShift)
}

// UnpackEnvelope decodes a packed header into an Envelope. The second
// return value is false if the word does not carry a valid header.
// It does not verify the checksum; transports use ChecksumOK for that.
func UnpackEnvelope(w uint64) (Envelope, bool) {
	if w&validBit == 0 {
		return Envelope{}, false
	}
	return Envelope{
		Src:    Rank((w >> srcShift) & srcMask64),
		Tag:    Tag((w >> tagShift) & tagMask64),
		Comm:   Comm((w >> commShift) & commMask64),
		Stream: Stream((w >> streamShift) & streamMask64),
	}, true
}

// Pack encodes the request, setting wildcard flag bits as needed.
// Pack panics if the request is invalid.
func (r Request) Pack() uint64 {
	if err := r.Validate(); err != nil {
		panic("envelope: Pack on invalid request: " + err.Error())
	}
	return r.pack()
}

// Encode is Pack returning Validate's error instead of panicking.
func (r Request) Encode() (uint64, error) {
	if err := r.Validate(); err != nil {
		return 0, err
	}
	return r.pack(), nil
}

func (r Request) pack() uint64 {
	w := uint64(validBit)
	if r.Src == AnySource {
		w |= anySrcBit
	} else {
		w |= (uint64(r.Src) & srcMask64) << srcShift
	}
	if r.Tag == AnyTag {
		w |= anyTagBit
	} else {
		w |= (uint64(r.Tag) & tagMask64) << tagShift
	}
	w |= (uint64(r.Stream) & streamMask64) << streamShift
	w |= (uint64(r.Comm) & commMask64) << commShift
	return Seal(w)
}

// UnpackRequest decodes a packed header into a Request. The second
// return value is false if the word does not carry a valid header.
func UnpackRequest(w uint64) (Request, bool) {
	if w&validBit == 0 {
		return Request{}, false
	}
	r := Request{
		Src:    Rank((w >> srcShift) & srcMask64),
		Tag:    Tag((w >> tagShift) & tagMask64),
		Comm:   Comm((w >> commShift) & commMask64),
		Stream: Stream((w >> streamShift) & streamMask64),
	}
	if w&anySrcBit != 0 {
		r.Src = AnySource
	}
	if w&anyTagBit != 0 {
		r.Tag = AnyTag
	}
	return r, true
}

// MatchesPacked evaluates the match predicate directly on two packed
// words — the comparison the GPU scan phase executes on a single 64-bit
// register each: one XOR and one mask, with no branch. The mask
// (MatchMask) keeps the valid bit, the communicator and stream fields,
// which always compare (no stream wildcard exists), and the source and
// tag fields unless req's wildcard bit for them is set; the checksum
// and flag bits never compare. Both words must carry the valid bit.
func MatchesPacked(req, env uint64) bool { return MatchesMasked(req, env, MatchMask(req)) }

// MatchMask returns the bits of a packed envelope that request word
// req compares. Loops testing one request against many envelopes build
// it once and call MatchesMasked.
func MatchMask(req uint64) uint64 {
	// (bit - 1) is all ones when the wildcard bit is clear, 0 when set.
	keepSrc := (req>>anySrcShift)&1 - 1
	keepTag := (req>>anyTagShift)&1 - 1
	return validBit | commMask64<<commShift | streamMask64<<streamShift |
		srcMask64<<srcShift&keepSrc | tagMask64<<tagShift&keepTag
}

// MatchesMasked is MatchesPacked with mask = MatchMask(req). An equal
// valid bit on a valid request means a valid envelope.
func MatchesMasked(req, env, mask uint64) bool {
	return (req^env)&mask|^req&validBit == 0
}

// StreamOf extracts the stream id from a packed header without a full
// unpack — the field the stream-concurrent matcher partitions on.
func StreamOf(w uint64) Stream {
	return Stream((w >> streamShift) & streamMask64)
}

// SanitizeEnvelope deterministically maps arbitrary raw values into a
// valid Envelope: the source is forced non-negative, the tag and
// communicator masked into their packed-field widths. Generators and
// fuzzers use it to turn untrusted bytes into legal send-side
// envelopes without rejection sampling. The stream is DefaultStream;
// use SanitizeEnvelopeStream for stream-qualified traffic.
func SanitizeEnvelope(src, tag, comm int32) Envelope {
	return Envelope{
		Src:  Rank(src) & MaxRank,
		Tag:  Tag(tag) & MaxTag,
		Comm: Comm(comm) & MaxComm,
	}
}

// SanitizeEnvelopeStream is SanitizeEnvelope with an untrusted stream
// id, masked into the 4-bit packed field like the other coordinates.
func SanitizeEnvelopeStream(src, tag, comm, stream int32) Envelope {
	e := SanitizeEnvelope(src, tag, comm)
	e.Stream = Stream(stream) & MaxStream
	return e
}

// SanitizeRequest is SanitizeEnvelope for receive requests: the low
// two bits of wild select the wildcards (bit 0 → AnySource, bit 1 →
// AnyTag), overriding the sanitized concrete values.
func SanitizeRequest(src, tag, comm int32, wild uint8) Request {
	e := SanitizeEnvelope(src, tag, comm)
	r := Request{Src: e.Src, Tag: e.Tag, Comm: e.Comm}
	if wild&1 != 0 {
		r.Src = AnySource
	}
	if wild&2 != 0 {
		r.Tag = AnyTag
	}
	return r
}

// SanitizeRequestStream is SanitizeRequest with an untrusted stream id
// masked into range. There is no stream wildcard bit: streams are
// always concrete.
func SanitizeRequestStream(src, tag, comm, stream int32, wild uint8) Request {
	r := SanitizeRequest(src, tag, comm, wild)
	r.Stream = Stream(stream) & MaxStream
	return r
}

// Key returns the hash key for the envelope's {src, tag, comm, stream}
// tuple — the value the relaxed (unordered) matcher hashes.
// Wildcard-free requests produce the same key for equal tuples.
func (e Envelope) Key() uint64 { return e.Pack() }

// Key returns the hash key for a wildcard-free request. It panics if
// the request carries a wildcard: hash matching requires the relaxation
// that prohibits wildcards.
func (r Request) Key() uint64 {
	if r.HasWildcard() {
		panic("envelope: Key on wildcard request (prohibited under the hash relaxation)")
	}
	return r.Pack()
}
