package mpi

import "time"

// Transport is one rank's endpoint view of the inter-node message
// layer: tagged point-to-point sends with bounded-buffer backpressure,
// a blocking receive, and the one collective the engine needs
// (all-reduce, which is also its barrier). Every method has a caller in
// dpgen/internal/engine; a new transport implements these eight and
// nothing else. It is the seam between the hybrid runtime and the
// network: the in-process channel implementation (*Rank, this package)
// runs every rank as goroutines in one address space, and
// dpgen/internal/mpi/tcp runs each rank as a separate OS process
// connected over framed TCP. docs/TRANSPORT.md specifies the contract
// in full, including the buffer-ownership rules shared with the
// Message pools of this package.
//
// Implementations must honour the pooled-buffer contract: payload
// slices passed to Send are handed off (drawn from GetData/GetMeta by
// well-behaved callers), delivered Messages recycle through
// Message.Release/ReleaseSlot, and a released send-buffer slot must
// eventually unblock a sender waiting in Send.
type Transport interface {
	// ID returns this endpoint's rank in [0, Size()).
	ID() int
	// Size returns the number of ranks in the communicator.
	Size() int
	// Send delivers a tagged message to dst, blocking while all send
	// buffers are in flight (and, transport permitting, while the
	// destination cannot accept more). It returns the time spent
	// blocked — zero on the uncontended fast path. data and meta are
	// handed off and must not be touched by the caller afterwards.
	Send(dst, tag int, data []float64, meta []int64) time.Duration
	// Recv blocks for the next message; ok is false once the transport
	// has been closed (or has failed) and the inbox is drained.
	Recv() (m *Message, ok bool)
	// AllReduce combines one float64 per rank with f, applied in rank
	// order, and returns the result on every rank. All ranks must call
	// it collectively, and no rank returns before every rank has
	// entered, so it doubles as a barrier. It returns a non-nil error
	// (instead of hanging) when the transport has failed, e.g. on peer
	// death.
	AllReduce(v float64, f func(a, b float64) float64) (float64, error)
	// Stats returns the messages and float64 elements sent by this
	// endpoint.
	Stats() (messages, elems int64)
	// Err returns the first fatal transport error observed (peer death,
	// wire corruption), or nil. A non-nil Err means no further messages
	// will arrive.
	Err() error
	// Close shuts the endpoint down, draining in-flight traffic where
	// the transport supports it. After Close, Recv returns ok=false.
	Close() error
}
