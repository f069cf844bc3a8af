// Package lexer implements ASPEN's lexical-analysis model (paper §IV-D):
// tokens are recognized by homogeneous NFAs (the Cache Automaton
// substrate), the longest match is identified by running the NFA until
// state exhaustion (Active State Vector goes to zero) while a report
// register tracks the most recent accepting report, and a reporting mask
// selects which rules are live in the current lexer mode. Each emitted
// report is converted to a token and handed to the DPDA input buffer in
// two cycles.
package lexer

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"aspen/internal/nfa"
	"aspen/internal/telemetry"
)

// DefaultMode is the mode rules belong to when none is given.
const DefaultMode = "main"

// Rule describes one token rule.
type Rule struct {
	// Name is the token name (typically a grammar terminal).
	Name string
	// Pattern is the regular expression (package nfa dialect).
	Pattern string
	// Skip drops matches (whitespace, comments) instead of emitting
	// tokens.
	Skip bool
	// Mode is the lexer mode in which the rule is active (DefaultMode if
	// empty). This models the hardware's reporting-mask register.
	Mode string
	// SetMode, when non-empty, switches the lexer to this mode after the
	// rule matches.
	SetMode string
}

// Spec is a complete tokenizer description. Earlier rules win ties
// (keyword-over-identifier priority).
type Spec struct {
	Name  string
	Rules []Rule
}

// Token is one lexed token, three words; Lexer.RuleName gives its
// rule's token name.
type Token struct {
	// Rule is the index into Spec.Rules.
	Rule int
	// Start and End delimit the lexeme as byte offsets [Start, End).
	Start, End int
}

// Stats model the lexer's cycle behaviour on ASPEN.
type Stats struct {
	// Bytes is the input length.
	Bytes int
	// Tokens is the number of tokens emitted (including skipped
	// lexemes).
	Tokens int
	// ScanCycles counts NFA symbol cycles, including the lookahead
	// bytes re-scanned after each longest-match backtrack. A streamed
	// input costs the same cycles however it is chunked: a Scan resumes
	// its run across chunks instead of re-scanning the pending lexeme.
	ScanCycles int
	// HandoffCycles counts report-to-token conversion cycles (2 per
	// emitted report, §V-A).
	HandoffCycles int
}

// Observe adds the stats to reg's lexer series, so tokenization work is
// queryable next to the parser's cycle counts. Streaming callers invoke
// it per chunk; every byte is presented once, so the totals equal those
// of one whole-input scan.
func (s Stats) Observe(reg *telemetry.Registry) {
	reg.Counter("lexer_bytes_total", "bytes presented to the lexer").Add(int64(s.Bytes))
	reg.Counter("lexer_tokens_total", "tokens emitted (including skipped lexemes)").Add(int64(s.Tokens))
	reg.Counter("lexer_scan_cycles_total", "NFA symbol cycles, including longest-match backtrack re-scans").Add(int64(s.ScanCycles))
	reg.Counter("lexer_handoff_cycles_total", "report-to-token conversion cycles (2 per emitted report)").Add(int64(s.HandoffCycles))
}

// Error is a lexing failure at a position.
type Error struct {
	Spec string
	Pos  int
	Byte byte
	Mode string
}

func (e *Error) Error() string {
	return fmt.Sprintf("lexer %s: no rule matches at offset %d (byte %q, mode %s)", e.Spec, e.Pos, e.Byte, e.Mode)
}

// modeNFA is the compiled automaton of one mode: its NFA determinized,
// and the DFA's states renumbered into the rows of one table the scan
// loop runs on (see New).
type modeNFA struct {
	name  string
	idx   int   // position in Lexer.order
	rules []int // report code → rule index

	// tab[q+b] is the row the state of row q steps to on byte b. Row
	// IDs are premultiplied by 256 and fall into ranges, in this order:
	// plain live non-accepting states, accelerated non-accepting states
	// (from special), accelerated accepting states (from accLo), plain
	// accepting states (from accelHi), and the dead row. A row below
	// special needs nothing from the scan but the next load.
	tab                           []int32
	start                         int32
	special, accLo, accelHi, dead int32
	hits                          []hit   // per accepting row, from accLo
	accels                        []accel // per accelerated row, from special

	// orig maps a row index (ID/256) to the DFA's own state ID (-1 for
	// the dead row), and row maps a DFA state ID to its row ID: saved
	// scans carry DFA IDs.
	orig, row []int32
}

// hit is what the scan does with a lexeme that ends in an accepting
// row.
type hit struct {
	rule int32
	emit bool     // false for a skip rule
	next *modeNFA // the mode after the lexeme: the rule's switch, or the same
}

// accelMin is the number of byte values a state's self-loop must keep
// for the scan to skip its runs rather than step them.
const accelMin = 128

// The ways an accelerated row finds the first byte that leaves it.
const (
	accelByte = iota // one byte leaves: bytes.IndexByte
	accelSWAR        // the bytes below lt and up to three more leave: 8 bytes per test
)

// accel is an accelerated row: a state whose self-loop keeps at least
// accelMin byte values and whose exits one of the kinds above finds.
type accel struct {
	kind uint8
	lt   byte    // accelSWAR: every byte below lt leaves
	by   [3]byte // accelByte: by[0] leaves; accelSWAR: these leave too
}

// newMode renumbers d's states into the ranges modeNFA describes,
// keeping the DFA's order within each range. The hits' emit flags and
// next modes are left for New, which knows every mode.
func newMode(name string, idx int, d *nfa.DFA, rules []int) *modeNFA {
	n := d.NumStates()
	// rank: 0 plain, 1 accelerated, 2 accelerated and accepting, 3 accepting.
	rank := make([]int, n)
	accels := make([]accel, n)
	for q := range n {
		a, fast := newAccel(d, q)
		switch acc := d.Report[q] >= 0; {
		case fast && acc:
			rank[q] = 2
		case fast:
			rank[q] = 1
		case acc:
			rank[q] = 3
		}
		accels[q] = a
	}
	mn := &modeNFA{name: name, idx: idx, rules: rules, orig: make([]int32, 0, n+1), row: make([]int32, n)}
	var from [4]int32
	for r := range from {
		from[r] = int32(len(mn.orig)) << 8
		for q := range n {
			if rank[q] == r {
				mn.row[q] = int32(len(mn.orig)) << 8
				mn.orig = append(mn.orig, int32(q))
			}
		}
	}
	mn.special, mn.accLo, mn.accelHi, mn.dead = from[1], from[2], from[3], int32(n)<<8
	// The dead row stands for the DFA's -1: a scan stopped by a lex
	// error saves that, which Resume refuses.
	mn.orig = append(mn.orig, -1)
	mn.start = mn.row[d.Start]
	mn.tab = make([]int32, (n+1)*256)
	for i := range mn.tab {
		mn.tab[i] = mn.dead
	}
	for r, q := range mn.orig[:n] {
		for b, t := range d.Trans[int(q)*256 : int(q)*256+256] {
			if t >= 0 {
				mn.tab[r<<8|b] = mn.row[t]
			}
		}
	}
	for q := mn.special; q < mn.accelHi; q += 256 {
		mn.accels = append(mn.accels, accels[mn.orig[q>>8]])
	}
	for q := mn.accLo; q < mn.dead; q += 256 {
		mn.hits = append(mn.hits, hit{rule: int32(rules[d.Report[mn.orig[q>>8]]])})
	}
	return mn
}

// newAccel reports how the scan skips the self-loop runs of d's state
// q, or false when it steps them: the self-loop keeps fewer than
// accelMin byte values, or no kind finds its exits.
func newAccel(d *nfa.DFA, q int) (accel, bool) {
	var exits []byte
	for b, t := range d.Trans[q*256 : q*256+256] {
		if t != int32(q) {
			exits = append(exits, byte(b))
		}
	}
	if len(exits) == 0 || len(exits) > 256-accelMin {
		return accel{}, false
	}
	if len(exits) == 1 {
		return accel{kind: accelByte, by: [3]byte{exits[0]}}, true
	}
	// The exits ascend and number at most 256-accelMin, so lt is at
	// most 128, as the SWAR test needs.
	lt := 0
	for lt < len(exits) && exits[lt] == byte(lt) {
		lt++
	}
	rest := exits[lt:]
	if len(rest) > 3 {
		return accel{}, false
	}
	a := accel{kind: accelSWAR, lt: byte(lt)}
	for k := range a.by {
		// Unused slots repeat an exit, which keeps the test exact.
		a.by[k] = exits[0]
		if k < len(rest) {
			a.by[k] = rest[k]
		}
	}
	return a, true
}

// Lexer is a compiled tokenizer. It is immutable after New, so one
// Lexer serves any number of concurrent scans.
type Lexer struct {
	spec  Spec
	modes map[string]*modeNFA
	order []*modeNFA // modes sorted by name
	fp    uint64
}

// New compiles a spec. All patterns must be non-nullable (a rule matching
// the empty string could never advance the input). Each mode's NFA is
// determinized (subset construction) so scanning costs one table lookup
// per byte; the DFA dies on exactly the byte the hardware NFA exhausts
// its active states, so the cycle model is unchanged. A mode whose DFA
// would pass the state bound is an error wrapping nfa.ErrTooManyStates.
//
// The DFA's states are then renumbered into special-state ranges (as in
// Rust's regex-automata), so a byte that lands in a plain non-accepting
// state costs the scan one load and one compare, and a state whose
// self-loop keeps at least accelMin byte values is accelerated
// (Hyperscan, NSDI 2019): the scan skips its runs to the first byte
// that leaves it. Only the renumbered table is kept; the fingerprint
// and saved scans use the DFA's own numbering.
func New(spec Spec) (*Lexer, error) {
	byMode := map[string][]int{}
	for i, r := range spec.Rules {
		mode := r.Mode
		if mode == "" {
			mode = DefaultMode
		}
		byMode[mode] = append(byMode[mode], i)
	}
	if len(byMode[DefaultMode]) == 0 {
		return nil, fmt.Errorf("lexer %s: no rules in mode %q", spec.Name, DefaultMode)
	}
	// Mode switch targets must exist.
	for _, r := range spec.Rules {
		if r.SetMode != "" && len(byMode[r.SetMode]) == 0 {
			return nil, fmt.Errorf("lexer %s: rule %q switches to undefined mode %q", spec.Name, r.Name, r.SetMode)
		}
	}
	l := &Lexer{spec: spec, modes: map[string]*modeNFA{}}
	modes := make([]string, 0, len(byMode))
	for m := range byMode {
		modes = append(modes, m)
	}
	sort.Strings(modes)
	dfas := make([]*nfa.DFA, 0, len(modes))
	for _, m := range modes {
		idxs := byMode[m]
		pats := make([]string, len(idxs))
		for j, i := range idxs {
			pats[j] = spec.Rules[i].Pattern
		}
		n, err := nfa.CompilePatterns(spec.Name+":"+m, pats)
		if err != nil {
			return nil, fmt.Errorf("lexer %s mode %s: %w", spec.Name, m, err)
		}
		if n.AcceptEmpty {
			return nil, fmt.Errorf("lexer %s mode %s: rule %q matches the empty string",
				spec.Name, m, spec.Rules[idxs[n.EmptyReport]].Name)
		}
		d, err := n.Determinize()
		if err != nil {
			return nil, fmt.Errorf("lexer %s mode %s: %w", spec.Name, m, err)
		}
		mn := newMode(m, len(l.order), d, idxs)
		l.modes[m] = mn
		l.order = append(l.order, mn)
		dfas = append(dfas, d)
	}
	for _, mn := range l.order {
		for k := range mn.hits {
			h := &mn.hits[k]
			r := spec.Rules[h.rule]
			h.emit, h.next = !r.Skip, cmp.Or(l.modes[r.SetMode], mn)
		}
	}
	l.fp = l.fingerprint(dfas)
	return l, nil
}

// NumModes returns the number of lexer modes.
func (l *Lexer) NumModes() int { return len(l.modes) }

// RuleName returns the token name of rule i (a Token's Rule).
func (l *Lexer) RuleName(i int) string { return l.spec.Rules[i].Name }

// Fingerprint is a deterministic hash of the compiled mode tables: the
// rules, each mode's report map, and its DFA in the DFA's own state
// numbering, not the scan's renumbered rows. A Scan's saved run
// configuration holds those DFA state IDs, which mean something only on
// a lexer with the same fingerprint.
func (l *Lexer) Fingerprint() uint64 { return l.fp }

// fingerprint hashes the rules and, per mode in order, its report map
// and DFA, dfas[i].
func (l *Lexer) fingerprint(dfas []*nfa.DFA) uint64 {
	// New fingerprints every lexer it builds; hashing through a fixed
	// buffer keeps that from allocating a copy of the tables.
	h := fnv.New64a()
	b := make([]byte, 0, 4096)
	u32 := func(v int) {
		if len(b) > cap(b)-4 {
			h.Write(b)
			b = b[:0]
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	str := func(s string) { u32(len(s)); b = append(b, s...) }
	for _, r := range l.spec.Rules {
		str(r.Name)
		str(r.SetMode)
		if r.Skip {
			u32(1)
		} else {
			u32(0)
		}
	}
	for i, mn := range l.order {
		str(mn.name)
		u32(len(mn.rules))
		for _, r := range mn.rules {
			u32(r)
		}
		d := dfas[i]
		u32(int(d.Start))
		u32(len(d.Report))
		for _, v := range d.Trans {
			u32(int(v))
		}
		for _, v := range d.Report {
			u32(int(v))
		}
	}
	h.Write(b)
	return h.Sum64()
}

// Tokenize scans input to completion, returning the non-skip tokens and
// cycle statistics.
func (l *Lexer) Tokenize(input []byte) ([]Token, Stats, error) {
	toks, stats, _, err := l.TokenizeResume(input, DefaultMode)
	return toks, stats, err
}

// TokenizeResume scans input starting in the given mode and additionally
// returns the mode in effect after the final token.
func (l *Lexer) TokenizeResume(input []byte, mode string) ([]Token, Stats, string, error) {
	return l.TokenizeResumeInto(nil, input, mode)
}

// TokenizeResumeInto is TokenizeResume appending into dst (pass
// dst[:0] to reuse its capacity across calls, the pooled-parser path).
func (l *Lexer) TokenizeResumeInto(dst []Token, input []byte, mode string) ([]Token, Stats, string, error) {
	var s Scan
	if err := s.Reset(l, mode); err != nil {
		return dst, Stats{Bytes: len(input)}, mode, err
	}
	toks, stats, err := s.scan(dst, input, true)
	return toks, stats, s.Mode(), err
}

// ModeAfter returns the mode in effect after applying rule's transition
// to the given mode.
func (l *Lexer) ModeAfter(mode string, rule int) string {
	if rule < 0 || rule >= len(l.spec.Rules) {
		return mode
	}
	if sm := l.spec.Rules[rule].SetMode; sm != "" {
		return sm
	}
	return mode
}

// Text returns the lexeme of t within input.
func (t Token) Text(input []byte) string { return string(input[t.Start:t.End]) }
