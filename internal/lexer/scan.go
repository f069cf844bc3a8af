package lexer

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"

	"aspen/internal/core"
	"aspen/internal/nfa"
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
// there instead of scanning on. The memo is keyed on the whole
// configuration — DFA state, or NFA active set — so DFA and NFA scans
// stay cycle-for-cycle equal.
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
	lead       byte     // input[start], for the no-match error
	state      int32    // run configuration in a DFA mode
	nrun       *nfa.Run // run configuration in an NFA mode
	nrunMode   *modeNFA // the mode nrun belongs to

	// The lexeme's last accept (accEnd < 0: none yet) and the run
	// configuration there, from which a failed lookahead is replayed
	// into the memo.
	accEnd, accRule int
	accState        int32
	accSet          nfa.ActiveSet

	// kept holds input[accEnd:end] while an accept is pending.
	kept []byte

	// memo holds failed (mode, configuration, position) triples; no
	// entry lies past memoMax (-1: empty).
	memo    map[memoKey]struct{}
	memoMax int
	keyBuf  []byte
}

// memoKey is one failed configuration: a DFA state, or (state -1) an
// NFA active set in its byte form.
type memoKey struct {
	pos   int
	mode  int32
	state int32
	set   string
}

// Reset binds s to l and rewinds it to the start of a stream in the
// given mode. Grown buffers keep their capacity.
func (s *Scan) Reset(l *Lexer, mode string) error {
	mn, ok := l.modes[mode]
	if !ok {
		return fmt.Errorf("lexer %s: unknown mode %q", l.spec.Name, mode)
	}
	if s.l != l {
		s.release()
		s.l = l
	}
	s.mode = mn
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

// release returns a pooled NFA runner.
func (s *Scan) release() {
	if s.nrun != nil {
		s.nrunMode.runs.Put(s.nrun)
		s.nrun, s.nrunMode = nil, nil
	}
}

// run returns the NFA runner for the current mode.
func (s *Scan) run() *nfa.Run {
	if s.nrunMode != s.mode {
		s.release()
		s.nrun, s.nrunMode = s.mode.getRun(), s.mode
	}
	return s.nrun
}

func (s *Scan) clearMemo() {
	clear(s.memo)
	s.memoMax = -1
}

// scan steps the run through chunk, the stream bytes [s.end,
// s.end+len(chunk)), emitting each lexeme as soon as its maximal munch
// is decided. With eof the stream ends after chunk.
func (s *Scan) scan(dst []Token, chunk []byte, eof bool) ([]Token, Stats, error) {
	st := Stats{Bytes: len(chunk)}
	base, old := s.end, s.kept
	oldAt, end := base-len(old), base+len(chunk)
	s.end = end
	from := func(x int) []byte {
		if x < base {
			return old[x-oldAt:]
		}
		return chunk[x-base:]
	}
	for {
		if s.pos < end {
			if !s.advance(from(s.pos), &st) {
				continue
			}
		} else if !eof || s.pos == s.start {
			break
		}
		// The run stopped at s.pos (dead, failed memo entry, or end of
		// input): the longest accept is the lexeme.
		if s.accEnd < 0 {
			return dst, st, &Error{Spec: s.l.spec.Name, Pos: s.start, Byte: s.lead, Mode: s.mode.name}
		}
		s.remember(func(x int) byte { return from(x)[0] })
		rule := &s.l.spec.Rules[s.accRule]
		st.Tokens++
		if !rule.Skip {
			dst = append(dst, Token{Rule: s.accRule, Name: rule.Name, Start: s.start, End: s.accEnd})
			st.HandoffCycles += 2
		}
		if next := s.l.next[s.accRule]; next != nil {
			s.mode = next
		}
		s.start, s.pos, s.accEnd = s.accEnd, s.accEnd, -1
		if s.memoMax >= 0 && s.start >= s.memoMax {
			s.clearMemo()
		}
	}
	if s.accEnd < 0 {
		s.kept = s.kept[:0]
	} else if s.accEnd < base {
		if k := s.accEnd - oldAt; k > 0 {
			s.kept = s.kept[:copy(s.kept, s.kept[k:])]
		}
		s.kept = append(s.kept, chunk...)
	} else {
		s.kept = append(s.kept[:0], chunk[s.accEnd-base:]...)
	}
	return dst, st, nil
}

// advance steps the run through seg, the bytes from s.pos on. It
// reports whether the run stopped before the end of seg.
func (s *Scan) advance(seg []byte, st *Stats) (stopped bool) {
	mn := s.mode
	fresh := s.pos == s.start
	if fresh {
		s.lead = seg[0]
	}
	// Steps n with s.pos+n <= memoMax may land on a failed entry.
	memoTo := s.memoMax - s.pos
	accEnd, accRule, accState := s.accEnd, s.accRule, s.accState
	n := 0
	if d := mn.dfa; d != nil {
		q := s.state
		if fresh {
			q = d.Start
		}
		trans, report := d.Trans, d.Report
		for n < len(seg) {
			q = trans[int(q)<<8|int(seg[n])]
			n++
			if q < 0 {
				stopped = true
				break
			}
			if r := report[q]; r >= 0 {
				accEnd, accRule, accState = s.pos+n, mn.rules[r], q
			} else if n <= memoTo && s.failed(memoKey{pos: s.pos + n, mode: int32(mn.idx), state: q}) {
				stopped = true
				break
			}
		}
		s.state = q
	} else {
		r := s.run()
		if fresh {
			r.Reset()
		}
		for n < len(seg) {
			alive, rep := r.Step(core.Symbol(seg[n]))
			n++
			if rep >= 0 {
				accEnd, accRule = s.pos+n, mn.rules[rep]
				s.accSet = append(s.accSet[:0], r.Active()...)
			} else if !alive || n <= memoTo && s.failed(s.setKey(s.pos+n, r.Active())) {
				stopped = true
				break
			}
		}
	}
	s.accEnd, s.accRule, s.accState = accEnd, accRule, accState
	s.pos += n
	st.ScanCycles += n
	return stopped
}

func (s *Scan) failed(k memoKey) bool {
	_, ok := s.memo[k]
	return ok
}

// setKey is the memo key of an NFA configuration.
func (s *Scan) setKey(pos int, set nfa.ActiveSet) memoKey {
	s.keyBuf = s.keyBuf[:0]
	for _, w := range set {
		s.keyBuf = binary.LittleEndian.AppendUint64(s.keyBuf, w)
	}
	return memoKey{pos: pos, mode: int32(s.mode.idx), state: -1, set: string(s.keyBuf)}
}

// remember memoizes the configurations the stopped run passed through
// after its last accept: none of them reaches another accept. It
// replays them from the accept's configuration, so the common one-byte
// lookahead costs nothing. at returns the stream byte at an offset.
func (s *Scan) remember(at func(int) byte) {
	last := s.pos - 1 // configurations at accEnd+1 .. last failed
	if last <= s.accEnd {
		return
	}
	if s.memo == nil {
		s.memo = map[memoKey]struct{}{}
	}
	mn := s.mode
	if d := mn.dfa; d != nil {
		q := s.accState
		for x := s.accEnd; x < last && q >= 0; x++ {
			q = d.Trans[int(q)<<8|int(at(x))]
			s.memo[memoKey{pos: x + 1, mode: int32(mn.idx), state: q}] = struct{}{}
		}
	} else {
		r := s.run()
		r.Resume(s.accSet)
		for x := s.accEnd; x < last; x++ {
			r.Step(core.Symbol(at(x)))
			s.memo[s.setKey(x+1, r.Active())] = struct{}{}
		}
	}
	s.memoMax = max(s.memoMax, last)
}

// errScanEncoding reports a saved scan that does not decode into a
// consistent run on this lexer.
var errScanEncoding = errors.New("lexer: malformed scan state")

// AppendBinary appends the state of a scan whose last Feed succeeded to
// b: the mode, the pending lexeme's start and first byte, the run
// configuration, the last accept and its configuration, the kept bytes,
// and the live memo entries in canonical order. A configuration is a
// word list: the DFA state, or the NFA active set. The run has scanned
// through End; offsets are stored as distances back from it, and the
// caller saves End beside the state.
func (s *Scan) AppendBinary(b []byte) []byte {
	u32 := func(v int) { b = binary.LittleEndian.AppendUint32(b, uint32(v)) }
	back := func(x int) { b = binary.LittleEndian.AppendUint64(b, uint64(s.end-x)) }
	words := func(ws ...uint64) {
		u32(len(ws))
		for _, w := range ws {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
	}
	dfa := s.mode.dfa != nil
	u32(s.mode.idx)
	back(s.start)
	b = append(b, s.lead)
	switch {
	case s.pos == s.start:
		words()
	case dfa:
		words(uint64(s.state))
	default:
		words(s.run().Active()...)
	}
	if s.accEnd < 0 {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		back(s.accEnd)
		u32(s.accRule)
		if dfa {
			words(uint64(s.accState))
		} else {
			words(s.accSet...)
		}
	}
	u32(len(s.kept))
	b = append(b, s.kept...)
	live := make([]memoKey, 0, len(s.memo))
	for k := range s.memo {
		if k.pos > s.start {
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
		if x.state != y.state {
			return int(x.state - y.state)
		}
		return strings.Compare(x.set, y.set)
	})
	u32(len(live))
	for _, k := range live {
		back(k.pos)
		u32(int(k.mode))
		if k.state >= 0 {
			words(uint64(k.state))
		} else { // the key holds the set's words in this byte form
			u32(len(k.set) / 8)
			b = append(b, k.set...)
		}
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
	// conf reads one configuration of mn, which must be live and past
	// the first byte: a DFA state (set nil), or an NFA active set in
	// its word form (state -1).
	conf := func(mn *modeNFA) (state int32, set []byte, ok bool) {
		n, ok := u32()
		if !ok || n > len(data)/8 {
			return 0, nil, false
		}
		raw := data[:8*n]
		data = data[8*n:]
		if d := mn.dfa; d != nil {
			if n != 1 {
				return 0, nil, false
			}
			q := binary.LittleEndian.Uint64(raw)
			return int32(q), nil, q != uint64(d.Start) && q < uint64(d.NumStates())
		}
		states := mn.n.NumStates()
		if n != (states+63)/64 {
			return 0, nil, false
		}
		live := false
		for i := 0; i < n; i++ {
			w := binary.LittleEndian.Uint64(raw[8*i:])
			if i == n-1 && states%64 != 0 && w>>(states%64) != 0 {
				return 0, nil, false // a state the NFA does not have
			}
			live = live || w != 0
		}
		return -1, raw, live
	}
	activeSet := func(dst nfa.ActiveSet, raw []byte) nfa.ActiveSet {
		dst = dst[:0]
		for i := 0; i < len(raw); i += 8 {
			dst = append(dst, binary.LittleEndian.Uint64(raw[i:]))
		}
		return dst
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
		q, raw, ok := conf(mn)
		if !ok {
			return bad("run configuration")
		}
		if s.state = q; raw != nil {
			s.run().Resume(activeSet(nil, raw))
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
		if s.accRule, ok = u32(); !ok || !slices.Contains(mn.rules, s.accRule) {
			return bad("accept rule")
		}
		q, raw, ok := conf(mn)
		if !ok {
			return bad("accept configuration")
		}
		s.accState, s.accSet = q, activeSet(s.accSet, raw)
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
		q, raw, ok := conf(m)
		if !ok {
			return bad("memo configuration")
		}
		if s.memo == nil {
			s.memo = map[memoKey]struct{}{}
		}
		s.memo[memoKey{pos: pos, mode: int32(m.idx), state: q, set: string(raw)}] = struct{}{}
		s.memoMax = max(s.memoMax, pos)
	}
	if len(data) != 0 {
		return bad("trailing bytes")
	}
	return nil
}
