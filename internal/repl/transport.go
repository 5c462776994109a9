package repl

import (
	"encoding/binary"
	"fmt"

	"popper/internal/gasnet"
)

// The wire. Each rank's gasnet segment is divided into N directed
// mailboxes of mailboxBytes each; a message from s lands in slot s of
// the target's segment (8-byte length header, then the encoded
// envelope), so concurrent request/response pairs never collide. Every
// send is one vectored Put — the caller's virtual clock is charged the
// RDMA cost, and injected link partitions ("gasnet/link/r<s>/r<t>")
// surface as typed errors before any byte moves, which is exactly how
// a network split looks to the protocol: the peer is simply
// unreachable. Receives are local segment reads.

// downError reports a crashed endpoint.
type downError struct{ id int }

func (e *downError) Error() string { return fmt.Sprintf("repl: replica %d is down", e.id) }

// deliver writes one encoded message into `to`'s mailbox slot `from`.
func (g *Group) deliver(from, to int, payload []byte) error {
	slot := int64(from) * mailboxBytes
	if int64(len(payload))+8 > mailboxBytes {
		return fmt.Errorf("repl: message of %d bytes exceeds the %d-byte mailbox",
			len(payload), mailboxBytes)
	}
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], uint64(len(payload)))
	_, err := g.world.Putv(from,
		[]gasnet.Addr{{Rank: to, Offset: slot}, {Rank: to, Offset: slot + 8}},
		[][]byte{hdr[:], payload})
	return err
}

// receive reads the message sender `from` left in `owner`'s mailbox.
func (g *Group) receive(owner, from int) ([]byte, error) {
	slot := int64(from) * mailboxBytes
	var hdr [8]byte
	if err := g.world.GetInto(owner, gasnet.Addr{Rank: owner, Offset: slot}, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint64(hdr[:])
	if int64(n)+8 > mailboxBytes {
		return nil, fmt.Errorf("repl: mailbox header of %d bytes is corrupt", n)
	}
	buf := make([]byte, n)
	if err := g.world.GetInto(owner, gasnet.Addr{Rank: owner, Offset: slot + 8}, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// rpc performs one synchronous request/response round: encode and ship
// the request over the wire, step the receiver's FSM, ship the reply
// back. Any failed leg — crashed endpoint, injected link partition —
// makes the peer unreachable for this round; the protocol treats all
// of them identically.
func (g *Group) rpc(from, to int, req message) (message, error) {
	if g.reps[from].down {
		return message{}, &downError{id: from}
	}
	if g.reps[to].down {
		return message{}, &downError{id: to}
	}
	if err := g.deliver(from, to, encodeMessage(req)); err != nil {
		return message{}, err
	}
	raw, err := g.receive(to, from)
	if err != nil {
		return message{}, err
	}
	got, err := decodeMessage(raw)
	if err != nil {
		return message{}, err
	}
	resp := g.handleLocked(to, got)
	if g.reps[to].down {
		// The handler killed the replica (store-level failure mid-apply):
		// the reply never leaves the machine.
		return message{}, &downError{id: to}
	}
	if err := g.deliver(to, from, encodeMessage(resp)); err != nil {
		return message{}, err
	}
	rawResp, err := g.receive(from, to)
	if err != nil {
		return message{}, err
	}
	return decodeMessage(rawResp)
}
