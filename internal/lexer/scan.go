package lexer

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Scan is one resumable tokenization run over a stream, the software
// form of the Cache Automaton keeping its active states and report
// register from one input-buffer fill to the next (§IV-D). Each Feed
// continues the run exactly where the previous chunk stopped, so no
// byte is scanned twice on account of a chunk boundary. The only bytes
// a Scan keeps are those after the pending lexeme's last accept, which a
// maximal-munch backtrack may have to re-scan.
//
// Backtracking is linear-time (Reps, TOPLAS 20(2), 1998): when a
// lookahead of more than one byte past the last accept dies, the run
// configurations it passed through are memoized as failed, and a later
// lexeme reaching the same configuration at the same position stops
// there instead of scanning on. The memo is keyed on the mode's DFA
// state, which stands for one NFA active set, so the scan cycles are
// those of the hardware NFA with the same memo.
//
// The scan runs on each mode's renumbered table (see New), so every
// state a Scan holds is a row ID. A skipped self-loop run costs the
// cycles of the bytes it skips. AppendBinary and Resume translate rows
// to and from the DFA's own state IDs, so a saved scan does not depend
// on the numbering.
//
// A Scan is bound to one Lexer by Reset and is not safe for concurrent
// use.
type Scan struct {
	l    *Lexer
	mode *modeNFA
	end  int // bytes presented so far: the offset of the next chunk

	// The pending lexeme starts at start and its run has stepped
	// through pos; pos == start means no byte of it is scanned yet.
	// After a successful Feed, pos == end.
	start, pos int
	lead       byte  // input[start], for the no-match error
	state      int32 // the run's row

	// The lexeme's last accept (accEnd < 0: none yet) and the row
	// there, which names the accepted rule and from which a failed
	// lookahead is replayed into the memo.
	accEnd   int
	accState int32

	// kept holds input[accEnd:end] while an accept is pending.
	kept []byte

	// memo holds failed (mode, configuration, position) triples; no
	// entry lies past memoMax (-1: empty).
	memo    map[memoKey]struct{}
	memoMax int
}

// memoKey is one failed configuration.
type memoKey struct {
	pos   int
	mode  int32
	state int32
}

// Reset binds s to l and rewinds it to the start of a stream in the
// given mode. Grown buffers keep their capacity.
func (s *Scan) Reset(l *Lexer, mode string) error {
	mn, ok := l.modes[mode]
	if !ok {
		return fmt.Errorf("lexer %s: unknown mode %q", l.spec.Name, mode)
	}
	s.l, s.mode = l, mn
	s.end, s.start, s.pos = 0, 0, 0
	s.accEnd = -1
	s.kept = s.kept[:0]
	s.clearMemo()
	return nil
}

// Mode returns the lexer mode of the pending lexeme.
func (s *Scan) Mode() string { return s.mode.name }

// End returns the number of bytes presented to the scan.
func (s *Scan) End() int { return s.end }

// Feed scans chunk as the continuation of the stream, appending every
// token whose maximal munch the chunk decides to dst. Tokens carry
// absolute stream offsets. A lexeme still live at the end of the chunk
// stays pending for the next Feed or Finish.
func (s *Scan) Feed(dst []Token, chunk []byte) ([]Token, Stats, error) {
	return s.scan(dst, chunk, false)
}

// Finish ends the stream: the pending lexeme, and any it backtracks
// into, is resolved with end-of-input semantics.
func (s *Scan) Finish(dst []Token) ([]Token, Stats, error) {
	return s.scan(dst, nil, true)
}

func (s *Scan) clearMemo() {
	clear(s.memo)
	s.memoMax = -1
}

// span is the input of one scan call: the kept bytes old at stream
// offset oldAt, then chunk at offset base.
type span struct {
	old, chunk  []byte
	oldAt, base int
}

// seg returns the segment holding stream offset x, and its offset.
func (in *span) seg(x int) ([]byte, int) {
	if x < in.base {
		return in.old, in.oldAt
	}
	return in.chunk, in.base
}

// at returns the stream byte at offset x.
func (in *span) at(x int) byte {
	seg, at := in.seg(x)
	return seg[x-at]
}

// scan steps the run through the kept bytes and then chunk, the stream
// bytes [s.end, s.end+len(chunk)), emitting each lexeme as soon as its
// maximal munch is decided by the compiled loop, runDFA, one segment at
// a time. With eof the stream ends after chunk.
func (s *Scan) scan(dst []Token, chunk []byte, eof bool) ([]Token, Stats, error) {
	st := Stats{Bytes: len(chunk)}
	in := span{old: s.kept, oldAt: s.end - len(s.kept), chunk: chunk, base: s.end}
	end := in.base + len(chunk)
	s.end = end
	for s.pos < end || eof && s.pos > s.start {
		seg, at := in.seg(s.pos)
		var err error
		if dst, err = s.runDFA(dst, &in, seg, at, eof && at+len(seg) == end, &st); err != nil {
			return dst, st, err
		}
	}
	if s.accEnd < 0 {
		s.kept = s.kept[:0]
	} else if base := in.base; s.accEnd < base {
		if k := s.accEnd - in.oldAt; k > 0 {
			s.kept = s.kept[:copy(s.kept, s.kept[k:])]
		}
		s.kept = append(s.kept, chunk...)
	} else {
		s.kept = append(s.kept[:0], chunk[s.accEnd-base:]...)
	}
	return dst, st, nil
}

// runDFA is the compiled scan loop. It runs lexeme after lexeme through
// seg, the stream bytes from at on that hold s.pos, and emits each token
// inline, with the run (row, lexeme start, last accept) in locals,
// written back to s once when it returns: when seg ends with a lexeme
// pending, the run backtracks to before seg, or on a lex error. With
// last, seg ends the stream.
//
// Each lexeme runs in two loops. While the memo may hold an entry for
// the position, every non-accepting row is looked up in it; past the
// memo, a plain row costs one load and one compare, and an accelerated
// row skips its self-loop run. A skipped byte is a scan cycle as much
// as a stepped one.
func (s *Scan) runDFA(dst []Token, in *span, seg []byte, at int, last bool, st *Stats) ([]Token, error) {
	mn := s.mode
	tab, special, accLo, accelHi, dead := mn.tab, mn.special, mn.accLo, mn.accelHi, mn.dead
	// Offsets relative to seg: the lexeme starts at start and the run
	// has stepped through i; the last accept ends at ae (ae <= start:
	// none yet) in row accState. i-i0 counts the bytes stepped.
	start, i, q := s.start-at, s.pos-at, s.state
	ae, accState := start, s.accState
	if s.accEnd >= 0 {
		ae = s.accEnd - at
	}
	if i == start {
		q = mn.start
	}
	i0, lexemes, emitted := i, 0, len(dst)
	memoTo := s.memoMax - at // steps to i <= memoTo may land on a failed entry
	failed := false
	for {
		for i < len(seg) && i < memoTo {
			q = tab[q+int32(seg[i])]
			i++
			if q >= accLo {
				if q == dead {
					break
				}
				ae, accState = i, q
			} else if s.failed(memoKey{pos: at + i, mode: int32(mn.idx), state: q}) {
				q = dead
				break
			}
		}
		if q != dead {
			for i < len(seg) {
				q = tab[q+int32(seg[i])]
				i++
				if q < special {
					continue
				}
				if q >= accLo {
					if q == dead {
						break
					}
					ae, accState = i, q
				}
				if q < accelHi {
					// The run stays in q up to the first byte that
					// leaves it, and an accepting q accepts there.
					i = mn.skip(seg, i, q)
					if q >= accLo {
						ae = i
					}
				}
			}
		}
		if q != dead && (!last || i == start) {
			break // seg ends with the run live
		}
		// The run stopped at i (dead, failed memo entry, or end of
		// stream): the longest accept is the lexeme.
		if ae <= start {
			failed = true
			break
		}
		if i-ae > 1 {
			s.remember(in, mn, at+ae, accState, at+i-1)
			memoTo = s.memoMax - at
		}
		h := &mn.hits[(accState-accLo)>>8]
		lexemes++
		if h.emit {
			dst = append(dst, Token{Rule: int(h.rule), Start: at + start, End: at + ae})
		}
		i0 -= i - ae
		start, i = ae, ae
		if s.memoMax >= 0 && at+start >= s.memoMax {
			s.clearMemo()
			memoTo = -1 - at
		}
		if h.next != mn {
			mn = h.next
			tab, special, accLo, accelHi, dead = mn.tab, mn.special, mn.accLo, mn.accelHi, mn.dead
		}
		if i < 0 {
			break // backtracked into the kept bytes
		}
		q = mn.start
	}
	s.mode, s.state, s.start, s.pos, s.accEnd = mn, q, at+start, at+i, -1
	if ae > start {
		s.accEnd, s.accState = at+ae, accState
	}
	if start >= 0 && start < len(seg) {
		s.lead = seg[start]
	} // else the lexeme began in an earlier segment, which set lead
	st.Tokens += lexemes
	st.ScanCycles += i - i0
	st.HandoffCycles += 2 * (len(dst) - emitted)
	if failed {
		return dst, &Error{Spec: s.l.spec.Name, Pos: s.start, Byte: s.lead, Mode: mn.name}
	}
	return dst, nil
}

// skip returns the offset of the first byte of seg from i on that
// leaves the accelerated row q, or len(seg).
func (mn *modeNFA) skip(seg []byte, i int, q int32) int {
	a := &mn.accels[(q-mn.special)>>8]
	if a.kind == accelByte {
		if k := bytes.IndexByte(seg[i:], a.by[0]); k >= 0 {
			return i + k
		}
		return len(seg)
	}
	// accelSWAR: a byte below lt, or equal to one of by, sets its high
	// bit in t; borrows only carry past a byte that does, so t is zero
	// exactly when none of the 8 bytes leaves q.
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	lt := ones * uint64(a.lt)
	b0, b1, b2 := ones*uint64(a.by[0]), ones*uint64(a.by[1]), ones*uint64(a.by[2])
	for ; i+8 <= len(seg); i += 8 {
		x := binary.LittleEndian.Uint64(seg[i:])
		v0, v1, v2 := x^b0, x^b1, x^b2
		t := (x-lt)&^x | (v0-ones)&^v0 | (v1-ones)&^v1 | (v2-ones)&^v2
		if t&highs != 0 {
			break
		}
	}
	row := (*[256]int32)(mn.tab[q : q+256])
	for i < len(seg) && row[seg[i]] == q {
		i++
	}
	return i
}

func (s *Scan) failed(k memoKey) bool {
	_, ok := s.memo[k]
	return ok
}

// remember memoizes the rows a run of mode mn passed through after its
// last accept at accEnd, up to last: none of them reaches another
// accept. It replays them from the accept's row, so the common one-byte
// lookahead, which the caller skips, costs nothing.
func (s *Scan) remember(in *span, mn *modeNFA, accEnd int, accState int32, last int) {
	if s.memo == nil {
		s.memo = map[memoKey]struct{}{}
	}
	q := accState
	for x := accEnd; x < last && q != mn.dead; x++ {
		q = mn.tab[q+int32(in.at(x))]
		s.memo[memoKey{pos: x + 1, mode: int32(mn.idx), state: q}] = struct{}{}
	}
	s.memoMax = max(s.memoMax, last)
}

// errScanEncoding reports a saved scan that does not decode into a
// consistent run on this lexer.
var errScanEncoding = errors.New("lexer: malformed scan state")

// AppendBinary appends the state of a scan whose last Feed succeeded to
// b: the mode, the pending lexeme's start and first byte, the run's DFA
// state, the last accept with its rule and state, the kept bytes, and
// the live memo entries in canonical order. A state is written as a
// one-word list (none before the lexeme's first byte) holding the DFA's
// own state ID, not the row, and the memo entries are ordered by those
// IDs, so the image is the same whatever the rows. The run has
// scanned through End; offsets are stored as distances back from it,
// and the caller saves End beside the state.
func (s *Scan) AppendBinary(b []byte) []byte {
	u32 := func(v int) { b = binary.LittleEndian.AppendUint32(b, uint32(v)) }
	back := func(x int) { b = binary.LittleEndian.AppendUint64(b, uint64(s.end-x)) }
	state := func(q int32) {
		u32(1)
		b = binary.LittleEndian.AppendUint64(b, uint64(q))
	}
	mn := s.mode
	u32(mn.idx)
	back(s.start)
	b = append(b, s.lead)
	if s.pos == s.start {
		u32(0)
	} else {
		state(mn.orig[s.state>>8])
	}
	if s.accEnd < 0 {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		back(s.accEnd)
		u32(int(mn.hits[(s.accState-mn.accLo)>>8].rule))
		state(mn.orig[s.accState>>8])
	}
	u32(len(s.kept))
	b = append(b, s.kept...)
	live := make([]memoKey, 0, len(s.memo))
	for k := range s.memo {
		if k.pos > s.start {
			k.state = s.l.order[k.mode].orig[k.state>>8]
			live = append(live, k)
		}
	}
	slices.SortFunc(live, func(x, y memoKey) int {
		if x.pos != y.pos {
			return x.pos - y.pos
		}
		if x.mode != y.mode {
			return int(x.mode - y.mode)
		}
		return int(x.state - y.state)
	})
	u32(len(live))
	for _, k := range live {
		back(k.pos)
		u32(int(k.mode))
		state(k.state)
	}
	return b
}

// Resume binds s to l and loads a state written by AppendBinary on a
// lexer with the same Fingerprint, with end the stream offset saved
// beside it. Every field is checked against l, so a damaged state is
// refused with an error rather than resumed; s is then left in
// an unspecified state and must be Reset before reuse.
func (s *Scan) Resume(l *Lexer, data []byte, end int) error {
	bad := func(what string) error { return fmt.Errorf("%w: %s", errScanEncoding, what) }
	u32 := func() (int, bool) {
		if len(data) < 4 {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(data)
		data = data[4:]
		return int(v), true
	}
	at := func() (int, bool) {
		if len(data) < 8 {
			return 0, false
		}
		d := binary.LittleEndian.Uint64(data)
		data = data[8:]
		if d > uint64(end) {
			return 0, false
		}
		return end - int(d), true
	}
	mode := func() (*modeNFA, bool) {
		i, ok := u32()
		if !ok || i >= len(l.order) {
			return nil, false
		}
		return l.order[i], true
	}
	// state reads one DFA state of mn, which must be live and past the
	// first byte, and returns its row.
	state := func(mn *modeNFA) (int32, bool) {
		if n, ok := u32(); !ok || n != 1 || len(data) < 8 {
			return 0, false
		}
		q := binary.LittleEndian.Uint64(data)
		data = data[8:]
		if q >= uint64(len(mn.row)) || mn.row[q] == mn.start {
			return 0, false
		}
		return mn.row[q], true
	}

	mn, ok := mode()
	if !ok || end < 0 {
		return bad("mode")
	}
	if s.Reset(l, mn.name) != nil {
		return bad("mode")
	}
	s.end, s.pos = end, end
	if s.start, ok = at(); !ok || len(data) < 1 {
		return bad("lexeme start")
	}
	s.lead, data = data[0], data[1:]
	if s.pos > s.start {
		if s.state, ok = state(mn); !ok {
			return bad("run configuration")
		}
	} else if n, ok := u32(); !ok || n != 0 {
		return bad("run configuration")
	}
	if len(data) < 1 || data[0] > 1 {
		return bad("accept flag")
	}
	hasAcc := data[0] == 1
	data = data[1:]
	if hasAcc {
		if s.accEnd, ok = at(); !ok || s.accEnd <= s.start || s.accEnd > s.pos {
			return bad("accept end")
		}
		rule, ok := u32()
		if !ok {
			return bad("accept rule")
		}
		// The state must accept the saved rule: Finish emits the rule
		// the state names.
		if s.accState, ok = state(mn); !ok || s.accState < mn.accLo ||
			int(mn.hits[(s.accState-mn.accLo)>>8].rule) != rule {
			return bad("accept configuration")
		}
	}
	n, ok := u32()
	if !ok || n > len(data) || (hasAcc && n != s.pos-s.accEnd) || (!hasAcc && n != 0) {
		return bad("kept bytes")
	}
	s.kept = append(s.kept[:0], data[:n]...)
	data = data[n:]
	if n, ok = u32(); !ok {
		return bad("memo")
	}
	for ; n > 0; n-- {
		pos, ok := at()
		if !ok || pos <= s.start {
			return bad("memo position")
		}
		m, ok := mode()
		if !ok {
			return bad("memo mode")
		}
		q, ok := state(m)
		if !ok {
			return bad("memo configuration")
		}
		if s.memo == nil {
			s.memo = map[memoKey]struct{}{}
		}
		s.memo[memoKey{pos: pos, mode: int32(m.idx), state: q}] = struct{}{}
		s.memoMax = max(s.memoMax, pos)
	}
	if len(data) != 0 {
		return bad("trailing bytes")
	}
	return nil
}
