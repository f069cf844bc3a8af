package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// Binary codec for stream.Checkpoint. A streaming checkpoint that
// leaves the process — spilled to the durable checkpoint store so a
// parse session survives a daemon crash — travels as a fixed-layout
// little-endian record wrapping the core checkpoint's own encoding:
//
//	magic "ASC3" | exec len u32 | exec blob (core codec) | scan len u32 |
//	scan (lexer.Scan's encoding) | end | tokens | lex stats ×4 | jammed |
//	jam pos | Machine | Lexer | Digest
//
// The scan section holds the lexer run: mode, run configuration, the
// pending lexeme's start and last accept, the bytes after that accept,
// and the failure memo — tens of bytes in the common case, however long
// the pending lexeme. An "ASC2" image (the earlier layout, which
// carried the whole untokenized tail) has no scan state to resume from
// and is refused as malformed. Both integrity seals ride along (the
// core blob carries Exec.Digest, the outer record carries the
// stream-level Digest), so the loading side verifies the snapshot
// survived storage before resuming from it.
// Decoding never panics on arbitrary input, and a record that parses
// but does not re-encode to the same bytes is rejected as damaged.

// ErrCheckpointEncoding reports a structurally malformed encoded
// checkpoint (distinct from a well-formed one whose seal fails —
// Restore reports that as core.ErrCheckpointCorrupt).
var ErrCheckpointEncoding = errors.New("stream: malformed checkpoint encoding")

const checkpointMagic = "ASC3"

// maxCheckpointSection bounds one variable-length section so a garbage
// length field cannot drive a huge allocation on decode.
const maxCheckpointSection = 1 << 30

// MarshalBinary encodes the checkpoint, seals included. It implements
// encoding.BinaryMarshaler.
func (cp *Checkpoint) MarshalBinary() ([]byte, error) {
	exec, err := cp.Exec.MarshalBinary()
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, 4+4+len(exec)+4+len(cp.Scan)+8*10)
	out = append(out, checkpointMagic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(exec)))
	out = append(out, exec...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(cp.Scan)))
	out = append(out, cp.Scan...)
	put := func(v int) { out = binary.LittleEndian.AppendUint64(out, uint64(int64(v))) }
	put(cp.End)
	put(cp.Tokens)
	put(cp.LexStats.Bytes)
	put(cp.LexStats.Tokens)
	put(cp.LexStats.ScanCycles)
	put(cp.LexStats.HandoffCycles)
	if cp.Jammed {
		put(1)
	} else {
		put(0)
	}
	put(cp.JamPos)
	out = binary.LittleEndian.AppendUint64(out, cp.Machine)
	out = binary.LittleEndian.AppendUint64(out, cp.Lexer)
	out = binary.LittleEndian.AppendUint64(out, cp.Digest)
	return out, nil
}

// UnmarshalBinary decodes data into cp, reusing cp's buffers. It never
// panics on arbitrary input: structural damage returns
// ErrCheckpointEncoding. The caller still must verify both seals (or
// let Parser.Restore do it) — a record can parse cleanly yet carry
// corrupted field values, which only the seals catch. It implements
// encoding.BinaryUnmarshaler.
func (cp *Checkpoint) UnmarshalBinary(data []byte) error {
	if len(data) < 4 || string(data[:4]) != checkpointMagic {
		return fmt.Errorf("%w: missing magic", ErrCheckpointEncoding)
	}
	orig := data
	data = data[4:]
	takeLen := func() (int, error) {
		if len(data) < 4 {
			return 0, fmt.Errorf("%w: truncated length", ErrCheckpointEncoding)
		}
		n := int(binary.LittleEndian.Uint32(data))
		data = data[4:]
		if n > maxCheckpointSection || n > len(data) {
			return 0, fmt.Errorf("%w: section length %d exceeds payload", ErrCheckpointEncoding, n)
		}
		return n, nil
	}
	take := func(dst *int) error {
		if len(data) < 8 {
			return fmt.Errorf("%w: truncated", ErrCheckpointEncoding)
		}
		*dst = int(int64(binary.LittleEndian.Uint64(data)))
		data = data[8:]
		return nil
	}
	n, err := takeLen()
	if err != nil {
		return err
	}
	if err := cp.Exec.UnmarshalBinary(data[:n]); err != nil {
		return fmt.Errorf("%w: %v", ErrCheckpointEncoding, err)
	}
	data = data[n:]
	if n, err = takeLen(); err != nil {
		return err
	}
	cp.Scan = append(cp.Scan[:0], data[:n]...)
	data = data[n:]
	if err := take(&cp.End); err != nil {
		return err
	}
	if err := take(&cp.Tokens); err != nil {
		return err
	}
	if err := take(&cp.LexStats.Bytes); err != nil {
		return err
	}
	if err := take(&cp.LexStats.Tokens); err != nil {
		return err
	}
	if err := take(&cp.LexStats.ScanCycles); err != nil {
		return err
	}
	if err := take(&cp.LexStats.HandoffCycles); err != nil {
		return err
	}
	var jammed int
	if err := take(&jammed); err != nil {
		return err
	}
	if jammed > 1 || jammed < 0 {
		return fmt.Errorf("%w: boolean out of range", ErrCheckpointEncoding)
	}
	cp.Jammed = jammed == 1
	if err := take(&cp.JamPos); err != nil {
		return err
	}
	if len(data) < 24 {
		return fmt.Errorf("%w: truncated fingerprints/digest", ErrCheckpointEncoding)
	}
	cp.Machine = binary.LittleEndian.Uint64(data)
	cp.Lexer = binary.LittleEndian.Uint64(data[8:])
	cp.Digest = binary.LittleEndian.Uint64(data[16:])
	data = data[24:]
	if len(data) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCheckpointEncoding, len(data))
	}
	reenc, err := cp.MarshalBinary()
	if err != nil || !bytes.Equal(reenc, orig) {
		return fmt.Errorf("%w: non-canonical encoding", ErrCheckpointEncoding)
	}
	return nil
}
