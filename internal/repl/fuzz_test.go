package repl

import (
	"bytes"
	"crypto/sha256"
	"testing"
)

// seedMessages are valid encodings of every message shape the
// protocol sends.
func seedMessages() [][]byte {
	sync := Record{Index: 4, Epoch: 2, Kind: RecSync, Files: ws(4)}
	sync.seal()
	put := Record{Index: 5, Epoch: 2, Kind: RecPut, Path: "exp/journal.csv", Data: []byte("gen,done\n4,true\n")}
	put.seal()
	noop := Record{Index: 6, Epoch: 3, Kind: RecNoop}
	noop.seal()
	msgs := []message{
		{Kind: msgAppend, From: 0, Epoch: 3, PrevIndex: 3, PrevDigest: sha256.Sum256([]byte("base")),
			Records: []Record{sync, put, noop}, Commit: 5},
		{Kind: msgAppend, From: 1, Epoch: 3, PrevIndex: 6, PrevDigest: noop.digest, Commit: 6, TruncateTo: 5},
		{Kind: msgAppendResp, From: 2, Epoch: 3, OK: true, MatchIndex: 6},
		{Kind: msgAppendResp, From: 2, Epoch: 3, MatchIndex: 2, NeedSnapshot: true},
		{Kind: msgVote, From: 1, Epoch: 4, LastIndex: 6, LastEpoch: 3, LastDigest: noop.digest},
		{Kind: msgVoteResp, From: 0, Epoch: 4, Granted: true},
		{Kind: msgSnapshot, From: 0, Epoch: 3, Image: ws(6), Base: 6, BaseEpoch: 3, BaseDigest: noop.digest},
	}
	out := make([][]byte, len(msgs))
	for i, m := range msgs {
		out[i] = encodeMessage(m)
	}
	return out
}

// FuzzReplMessage: decoding never panics; a message that decodes
// re-encodes to the same bytes; and a single flipped byte in a valid
// encoding never decodes. Each input is also decoded with its checksum
// recomputed, so the parser behind the checksum sees arbitrary bytes.
func FuzzReplMessage(f *testing.F) {
	for _, raw := range seedMessages() {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkDecoded(t, raw)
		if len(raw) >= sha256.Size {
			body := raw[:len(raw)-sha256.Size]
			sum := sha256.Sum256(body)
			checkDecoded(t, append(append([]byte(nil), body...), sum[:]...))
		}
	})
}

// checkDecoded applies the properties to one input.
func checkDecoded(t *testing.T, raw []byte) {
	m, err := decodeMessage(raw)
	if err != nil {
		return
	}
	if again := encodeMessage(m); !bytes.Equal(again, raw) {
		t.Fatalf("message re-encodes to %d different bytes (was %d)", len(again), len(raw))
	}
	flipped := append([]byte(nil), raw...)
	for i := range flipped {
		flipped[i] ^= 0xff
		if _, err := decodeMessage(flipped); err == nil {
			t.Fatalf("a flipped byte %d of %d still decodes", i, len(raw))
		}
		flipped[i] ^= 0xff
	}
}
