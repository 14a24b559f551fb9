// Package transport defines the message vocabulary the distributed
// protocol (internal/proto, internal/node) speaks and the transport
// contract both run on. A processor is addressed by id and calls
// Send/Deliver/Inbox; *which* medium carries the bytes — real sockets
// (internal/transport/socktrans) or the in-memory bus
// (internal/transport/membus) — is an implementation of the Transport
// interface the protocol never names.
//
// The split keeps three layers independent:
//
//	protocol core  (proto, node)   — state machines over Message values
//	transport      (this contract) — socktrans | membus, optionally under chaostrans
//	wire           (internal/wire) — binary codec socket transports frame with
//
// Fault injection is not part of the contract: the chaostrans
// middleware wraps any Transport and is the one place link faults are
// drawn, at the frame boundary.
package transport

import (
	"fmt"

	"plb/internal/task"
)

// Kind tags the protocol meaning of a message.
type Kind uint8

// Message kinds used by the distributed balancer; transports treat
// them opaquely.
const (
	// KindQuery is a collision-protocol query carrying the tree root
	// (boss) in A and the request sequence in B.
	KindQuery Kind = iota + 1
	// KindAccept answers a query; A is the boss, B is 1 if the
	// accepting processor is applicative (light and unreserved).
	KindAccept
	// KindID is the id message a reserved light processor sends to the
	// tree root.
	KindID
	// KindForward tells a processor to join the search as a tree node;
	// A is the boss.
	KindForward
	// KindTransfer announces a block of tasks; A is the task count.
	// Under a fault plan transfers are acknowledged: B carries the
	// transfer sequence number the recipient must echo in its ack. On
	// socket transports the message IS the block: Tasks carries the
	// task records themselves.
	KindTransfer
	// KindProbe is the adversarial pre-round probe; A is the sender's
	// load. The socket runtime reuses it as a status probe: B == 1
	// requests a status report, B == 2 is the reply (A = queue length,
	// Blob = a JSON status document).
	KindProbe
	// KindHeartbeat is an explicit liveness probe from the failure
	// detector; it carries no payload — its arrival is the signal.
	KindHeartbeat
	// KindTransferAck confirms a task transfer was applied; A is the
	// task count moved, B echoes the transfer sequence number.
	KindTransferAck
	// KindJoin carries membership bootstrap traffic. B == 0 is a join
	// request from a booting processor to a seed peer (A == 1 marks
	// the sponsor copy — the one seed responsible for admission);
	// B > 0 is the sponsor's admission broadcast, carrying the admitted
	// joiner in A and the new view epoch in B. Socket transports also
	// reuse the kind for their connection handshake, with a peer
	// address table in Blob.
	KindJoin
	// KindDrain announces that From has entered Draining (it stops
	// generating and accepting load, and hands its queue off); A is
	// the view epoch of the change.
	KindDrain
	// KindLeave announces that From has departed — its custody reached
	// zero and it left the system; A is the view epoch of the change.
	KindLeave

	// KindMax bounds the valid kind range (all kinds are < KindMax);
	// the wire codec and per-kind counters size off it.
	KindMax
)

// String names the kind for logs, error messages and verbose output.
func (k Kind) String() string {
	switch k {
	case KindQuery:
		return "query"
	case KindAccept:
		return "accept"
	case KindID:
		return "id"
	case KindForward:
		return "forward"
	case KindTransfer:
		return "transfer"
	case KindProbe:
		return "probe"
	case KindHeartbeat:
		return "heartbeat"
	case KindTransferAck:
		return "transfer-ack"
	case KindJoin:
		return "join"
	case KindDrain:
		return "drain"
	case KindLeave:
		return "leave"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Message is one point-to-point datagram.
type Message struct {
	// From and To are processor ids. Transport-level control frames
	// (the socket handshake) use To = -1; protocol messages always
	// address a real processor.
	From, To int32
	// Kind tags the protocol meaning.
	Kind Kind
	// A and B are small payload fields whose meaning depends on Kind.
	A, B int32
	// Tasks is the task block riding a KindTransfer on transports that
	// really move tasks (sockets). The in-memory simulator moves tasks
	// through machine memory and leaves this nil; it adds no cost there.
	Tasks []task.Task
	// Blob is an opaque kind-specific payload: peer address tables on
	// the socket handshake, JSON status documents on status probes.
	Blob []byte
}

// Stats are a transport's cumulative delivery counters. Sent counts
// every Send (the sender paid for the message either way); the loss
// counters say what the medium did to it afterwards.
type Stats struct {
	Sent       int64
	Dropped    int64
	Duplicated int64
	Delayed    int64
	CrashLost  int64
	GoneLost   int64
}

// Transport is the substrate contract the node runtime speaks
// exclusively. The model is the paper's synchronous step: Send
// enqueues, Deliver opens a new delivery window, Inbox reads what
// arrived for a local processor. In-memory transports deliver with
// unit latency and deterministic order; socket transports deliver
// whatever the network produced since the last Deliver, in arrival
// order.
type Transport interface {
	// N is the size of the processor id space the transport spans.
	N() int
	// Send enqueues one message for delivery.
	Send(m Message)
	// Deliver opens the next delivery window: everything that arrived
	// since the previous Deliver becomes readable through Inbox.
	Deliver()
	// Inbox returns processor p's messages for the current window. The
	// slice is owned by the transport and valid until the next Deliver:
	// a transport may reuse its storage for the window after, as the
	// socket transport does when Deliver swaps each id's arrivals in.
	// A caller that keeps a message past the next Deliver copies it.
	Inbox(p int) []Message
	// Stats returns the cumulative delivery counters.
	Stats() Stats
	// Close releases the transport's resources; the ids it hosts stop
	// receiving.
	Close() error
}

// KindCounter is an optional capability: transports that account
// traffic per message kind expose the counts for verbose/fault output.
type KindCounter interface {
	// SentByKind returns cumulative send counts indexed by Kind.
	SentByKind() [KindMax]int64
}
