// Endpoint/stream handle API of the runtime (DESIGN.md §17): the
// redesigned entry point the MPIX Stream relaxation calls for. An
// Endpoint is one GPU's communication handle, owning the verbs the
// flat Runtime methods delegate to; Open carves additional ordering
// contexts (streams) out of it. Under Level == StreamOrdered the
// runtime guarantees matching order only within each stream — sends
// and receives on the default stream behave exactly like the flat API,
// while operations on different streams may match in any relative
// order, which is what lets the wire release frames past another
// stream's gap and the stream engine match the contexts concurrently.
//
// Under the strict levels streams are still legal to open and use:
// the stream id then acts as an extra envelope discriminator (a
// receive on stream 2 only matches sends on stream 2) with full
// ordering preserved across all of them. Programs can therefore adopt
// the endpoint API first and relax the level later.
package mpx

import (
	"fmt"

	"simtmp/internal/envelope"
)

// Endpoint is GPU g's communication handle. All methods are safe for
// concurrent use (they delegate to the runtime's verbs under its
// mutex); the zero value is invalid — obtain endpoints from
// Runtime.Endpoint.
type Endpoint struct {
	rt  *Runtime
	gpu int
}

// Endpoint returns GPU g's communication handle.
func (rt *Runtime) Endpoint(g int) (*Endpoint, error) {
	if !rt.validGPU(g) {
		return nil, fmt.Errorf("mpx: GPU %d outside [0,%d)", g, rt.cluster.Size())
	}
	return &Endpoint{rt: rt, gpu: g}, nil
}

// GPU returns the endpoint's GPU index.
func (ep *Endpoint) GPU() int { return ep.gpu }

// Runtime returns the owning runtime.
func (ep *Endpoint) Runtime() *Runtime { return ep.rt }

// Open opens stream id on the endpoint and returns its handle.
// Stream 0 is the default context — always open, never openable or
// closable by hand (use Default). Opening an already-open stream is an
// error: a stream handle has exactly one owner at a time.
func (ep *Endpoint) Open(id envelope.Stream) (*Stream, error) {
	if id > envelope.MaxStream {
		return nil, fmt.Errorf("mpx: stream %d outside [0,%d]", id, envelope.MaxStream)
	}
	if id == envelope.DefaultStream {
		return nil, fmt.Errorf("mpx: stream 0 is the default context, always open (use Default)")
	}
	rt := ep.rt
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.openStreams[ep.gpu]&(1<<id) != 0 {
		return nil, fmt.Errorf("mpx: stream %d already open on GPU %d", id, ep.gpu)
	}
	rt.openStreams[ep.gpu] |= 1 << id
	return &Stream{ep: ep, id: id}, nil
}

// Default returns the endpoint's always-open default stream (id 0).
// Its handle cannot be closed.
func (ep *Endpoint) Default() *Stream {
	return &Stream{ep: ep, id: envelope.DefaultStream}
}

// Send transmits payload to GPU dst on the default stream.
func (ep *Endpoint) Send(dst int, tag envelope.Tag, comm envelope.Comm, payload []byte) error {
	return ep.rt.sendStream(ep.gpu, envelope.DefaultStream, dst, tag, comm, payload)
}

// PostRecv posts a receive on the default stream.
func (ep *Endpoint) PostRecv(src envelope.Rank, tag envelope.Tag, comm envelope.Comm) (*Recv, error) {
	return ep.rt.postRecvStream(ep.gpu, envelope.DefaultStream, src, tag, comm)
}

// SendInit creates a persistent send channel to dst on the default
// stream.
func (ep *Endpoint) SendInit(dst int, tag envelope.Tag, comm envelope.Comm, payload []byte) (*PersistentSend, error) {
	return ep.rt.SendInit(ep.gpu, dst, tag, comm, payload)
}

// RecvInit creates a persistent receive channel on the default stream.
func (ep *Endpoint) RecvInit(src envelope.Rank, tag envelope.Tag, comm envelope.Comm) (*PersistentRecv, error) {
	return ep.rt.RecvInit(ep.gpu, src, tag, comm)
}

// Stream is one ordering context of an endpoint. Operations on it are
// ordered among themselves (under every level); their order against
// other streams is guaranteed only by the strict levels and
// deliberately unspecified under StreamOrdered.
type Stream struct {
	ep *Endpoint
	id envelope.Stream
}

// ID returns the stream's wire id.
func (st *Stream) ID() envelope.Stream { return st.id }

// Endpoint returns the owning endpoint.
func (st *Stream) Endpoint() *Endpoint { return st.ep }

// Send transmits payload to GPU dst on this stream. It fails with
// ErrStreamClosed after Close.
func (st *Stream) Send(dst int, tag envelope.Tag, comm envelope.Comm, payload []byte) error {
	return st.ep.rt.sendStream(st.ep.gpu, st.id, dst, tag, comm, payload)
}

// PostRecv posts a receive on this stream: it matches only messages
// sent on the same stream id, and (under StreamOrdered) in posted
// order relative to this stream's other receives only. Wildcards range
// within the stream.
func (st *Stream) PostRecv(src envelope.Rank, tag envelope.Tag, comm envelope.Comm) (*Recv, error) {
	return st.ep.rt.postRecvStream(st.ep.gpu, st.id, src, tag, comm)
}

// SendInit creates a persistent send channel to dst on this stream.
func (st *Stream) SendInit(dst int, tag envelope.Tag, comm envelope.Comm, payload []byte) (*PersistentSend, error) {
	return st.ep.rt.sendInit(st.ep.gpu, st.id, dst, tag, comm, payload)
}

// RecvInit creates a persistent receive channel on this stream.
func (st *Stream) RecvInit(src envelope.Rank, tag envelope.Tag, comm envelope.Comm) (*PersistentRecv, error) {
	return st.ep.rt.recvInit(st.ep.gpu, st.id, src, tag, comm)
}

// Close closes the stream: subsequent stream-qualified operations fail
// with ErrStreamClosed and the id becomes available to Open again.
// Messages already sent on the stream stay deliverable — closing ends
// the ordering context, it does not revoke traffic. Closing the
// default stream or an already-closed stream is an error.
func (st *Stream) Close() error {
	if st.id == envelope.DefaultStream {
		return fmt.Errorf("mpx: cannot close the default stream")
	}
	rt := st.ep.rt
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.openStreams[st.ep.gpu]&(1<<st.id) == 0 {
		return fmt.Errorf("%w: stream %d on GPU %d already closed", ErrStreamClosed, st.id, st.ep.gpu)
	}
	rt.openStreams[st.ep.gpu] &^= 1 << st.id
	return nil
}
